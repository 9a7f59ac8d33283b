(* Result checker that shares no code with the solver.

   The instance is read once through the graph's plain accessors into
   arrays of its own; hop counts come from this module's BFS and every
   sum is taken here. Tolerances are relative to the total demand, so
   they scale with the instance and not with the answer under test.

   Every check returns the list of violations it found; an empty list
   means the result passed. *)

type inst = {
  n : int;
  asrc : int array;
  adst : int array;
  acap : float array;
  arev : int array;
  dem : (int * int * float) array;  (** (src, dst, demand) *)
  total_demand : float;
}

let of_graph g (cs : Dcn_flow.Commodity.t array) =
  let module G = Dcn_graph.Graph in
  let m = G.num_arcs g in
  let dem =
    Array.map (fun (c : Dcn_flow.Commodity.t) -> (c.src, c.dst, c.demand)) cs
  in
  {
    n = G.n g;
    asrc = Array.init m (G.arc_src g);
    adst = Array.init m (G.arc_dst g);
    acap = Array.init m (G.arc_cap g);
    arev = Array.init m (G.arc_rev g);
    dem;
    total_demand = Array.fold_left (fun s (_, _, d) -> s +. d) 0.0 dem;
  }

(* Absolute tolerance for flow sums: a billionth of the total demand. *)
let tol t = 1e-9 *. t.total_demand

(* Relative slack for comparing two certified quantities: a few ulps of
   rounding between a ratio test and its multiplied-out form. *)
let rel = 1e-12

(* Out-adjacency over positive-capacity arcs, as node -> arc list. *)
let adjacency t =
  let adj = Array.make t.n [] in
  Array.iteri
    (fun a s -> if t.acap.(a) > 0.0 then adj.(s) <- a :: adj.(s))
    t.asrc;
  adj

let bfs t adj s =
  let hops = Array.make t.n (-1) in
  let q = Queue.create () in
  hops.(s) <- 0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun a ->
        let v = t.adst.(a) in
        if hops.(v) < 0 then begin
          hops.(v) <- hops.(u) + 1;
          Queue.add v q
        end)
      adj.(u)
  done;
  hops

(* Σ dⱼ·hops(j), one BFS per distinct source. [Error] names the first
   commodity whose endpoints are disconnected. *)
let hop_volume t =
  let adj = adjacency t in
  let by_src = Hashtbl.create 64 in
  let vol = ref 0.0 and bad = ref None in
  Array.iter
    (fun (s, d, w) ->
      let hops =
        match Hashtbl.find_opt by_src s with
        | Some h -> h
        | None ->
            let h = bfs t adj s in
            Hashtbl.add by_src s h;
            h
      in
      if hops.(d) < 0 then bad := Some (s, d)
      else vol := !vol +. (w *. float_of_int hops.(d)))
    t.dem;
  match !bad with
  | Some (s, d) -> Error (Printf.sprintf "commodity %d->%d is disconnected" s d)
  | None -> Ok !vol

let total_capacity t = Array.fold_left ( +. ) 0.0 t.acap

(* λ ≤ C / Σ dⱼ·hops(j): every unit of delivered demand occupies at least
   its hop count in capacity. *)
let capacity_bound t =
  Result.map (fun v -> total_capacity t /. v) (hop_volume t)

let interval ~gap ~lo ~hi =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not (lo > 0.0) then add "lambda_lo %.17g is not positive" lo;
  if not (lo <= hi) then add "lambda_lo %.17g exceeds lambda_hi %.17g" lo hi;
  if not (hi <= (1.0 +. gap) *. lo *. (1.0 +. rel)) then
    add "gap not certified: lambda_hi %.17g > (1+%g) * lambda_lo %.17g" hi gap lo;
  List.rev !errs

(* Feasibility and value of the returned flow, as three checks: every
   arc within [0, capacity]; net outflow λ·(supply − demand) at every
   node; and enough routed volume to carry λ·Σdⱼ over shortest paths. *)

let arcs_within_capacity t ~arc_flow =
  let m = Array.length t.acap in
  if Array.length arc_flow <> m then
    [ Printf.sprintf "arc_flow has %d entries for %d arcs" (Array.length arc_flow) m ]
  else begin
    let eps = tol t in
    let bad = ref [] in
    Array.iteri
      (fun a f ->
        if f < -.eps || f > t.acap.(a) +. eps || Float.is_nan f then
          bad := a :: !bad)
      arc_flow;
    match List.rev !bad with
    | [] -> []
    | a :: _ as l ->
        [ Printf.sprintf "%d arcs outside their capacity, first arc %d: %.17g outside [0, %.17g]"
            (List.length l) a arc_flow.(a) t.acap.(a) ]
  end

let conservation t ~lambda ~arc_flow =
  let net = Array.make t.n 0.0 in
  Array.iteri
    (fun a f ->
      net.(t.asrc.(a)) <- net.(t.asrc.(a)) +. f;
      net.(t.adst.(a)) <- net.(t.adst.(a)) -. f)
    arc_flow;
  Array.iter
    (fun (s, d, w) ->
      net.(s) <- net.(s) -. (lambda *. w);
      net.(d) <- net.(d) +. (lambda *. w))
    t.dem;
  let worst = ref 0.0 and at = ref (-1) in
  Array.iteri
    (fun v e ->
      if Float.abs e > !worst then begin
        worst := Float.abs e;
        at := v
      end)
    net;
  if !worst <= tol t then []
  else
    [ Printf.sprintf "conservation error %.3g at node %d (tolerance %.3g)" !worst !at (tol t) ]

let routed_volume t ~lambda ~arc_flow =
  match hop_volume t with
  | Error e -> [ e ]
  | Ok hv ->
      let routed = Array.fold_left ( +. ) 0.0 arc_flow in
      if routed >= (lambda *. hv) -. tol t then []
      else
        [ Printf.sprintf "routed volume %.17g below lambda * hop volume %.17g" routed
            (lambda *. hv) ]

let flow t ~lambda ~arc_flow =
  let cap = arcs_within_capacity t ~arc_flow in
  if Array.length arc_flow <> Array.length t.acap then cap
  else cap @ conservation t ~lambda ~arc_flow @ routed_volume t ~lambda ~arc_flow

let within_capacity_bound t ~lo =
  match capacity_bound t with
  | Error e -> [ e ]
  | Ok b ->
      if lo <= b *. (1.0 +. rel) then []
      else [ Printf.sprintf "lambda_lo %.17g above capacity bound %.17g" lo b ]

(* Fat-tree closed form: only the k/2 unit uplinks of each edge switch
   limit a full-bisection fat-tree, so λ* = min over edge switches of
   (k/2) / max(off-switch demand out, in). Edge switches are the ones
   carrying servers. *)
let fat_tree_lambda t ~k ~servers =
  let out = Array.make t.n 0.0 and inn = Array.make t.n 0.0 in
  Array.iter
    (fun (s, d, w) ->
      out.(s) <- out.(s) +. w;
      inn.(d) <- inn.(d) +. w)
    t.dem;
  let best = ref infinity in
  Array.iteri
    (fun v srv ->
      let load = Float.max out.(v) inn.(v) in
      if srv > 0 && load > 0.0 then
        best := Float.min !best (float_of_int (k / 2) /. load))
    servers;
  !best

let fat_tree ~k ~servers t ~lo ~hi =
  let opt = fat_tree_lambda t ~k ~servers in
  if lo <= opt *. (1.0 +. rel) && opt <= hi *. (1.0 +. rel) then []
  else
    [
      Printf.sprintf "fat-tree optimum %.17g outside [%.17g, %.17g]" opt lo hi;
    ]

(* Failed arcs (and their reverses) must carry nothing. *)
let failed_idle t ~failed ~arc_flow =
  let eps = tol t in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun a ->
          if Float.abs arc_flow.(a) > eps then
            Some (Printf.sprintf "failed arc %d carries %.17g" a arc_flow.(a))
          else None)
        [ a; t.arev.(a) ])
    failed

(* ---- response bodies ---- *)

(* The value of a top-level numeric field of a flat JSON object, read
   with a scanner of this module's own: ["name": <number>]. *)
let body_number body name =
  let key = "\"" ^ name ^ "\":" in
  let kl = String.length key and bl = String.length body in
  let rec find i =
    if i + kl > bl then None
    else if String.sub body i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < bl && body.[!i] = ' ' do incr i done;
      let j = ref !i in
      while
        !j < bl
        && match body.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub body !i (!j - !i))

type body_interval = { b_lambda : float; b_lo : float; b_hi : float }

let body_interval body =
  match
    ( body_number body "lambda",
      body_number body "lambda_lower",
      body_number body "lambda_upper" )
  with
  | Some b_lambda, Some b_lo, Some b_hi -> Ok { b_lambda; b_lo; b_hi }
  | _ -> Error "response body lacks lambda, lambda_lower or lambda_upper"

(* A served body must carry exactly the interval an in-process solve of
   the same request certifies: same bits, not merely close. *)
let body_matches body ~lambda ~lo ~hi =
  match body_interval body with
  | Error e -> [ e ]
  | Ok b ->
      if
        Int64.equal (Int64.bits_of_float b.b_lambda) (Int64.bits_of_float lambda)
        && Int64.equal (Int64.bits_of_float b.b_lo) (Int64.bits_of_float lo)
        && Int64.equal (Int64.bits_of_float b.b_hi) (Int64.bits_of_float hi)
      then []
      else
        [
          Printf.sprintf
            "body interval [%.17g, %.17g] (lambda %.17g) differs from the \
             in-process solve [%.17g, %.17g] (lambda %.17g)"
            b.b_lo b.b_hi b.b_lambda lo hi lambda;
        ]
