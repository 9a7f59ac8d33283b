(* failure-sweep: delta-solves after link failures, from one
   group-tracked baseline. One round re-solves every point of a fixed
   grid with Mcmf_fptas.resolve_after_failure.

   The instance and the failure sets are fixed, whatever --seed says:
   on some failure sets the delta path returns a flow that breaks
   conservation (see README), and which sets those are depends on the
   draw. With fixed inputs the faulty points fail every time, are
   counted in [failed], and every other point must pass every check. *)

open Common

let spec = "rrg:150,15,10"
let instance_seed = 1
let eps = 0.1
let gap = 0.1
let setups = 3

(* (class, failed links): most points fail one link, a few fail several,
   and the wide ones fail 1%, 2% and 4% of the links, which tends to
   send the solver down its cold-restart fallback. *)
let grid ~links =
  let pct p = max 1 (((links * p) + 99) / 100) in
  List.init 6 (fun _ -> ("single", 1))
  @ [ ("multi", 2); ("multi", 3); ("multi", 5) ]
  @ [ ("wide", pct 1); ("wide", pct 2); ("wide", pct 4) ]

let classes = [ "single"; "multi"; "wide" ]

type point = { cls : string; nlinks : int; g : Core.Graph.t; failed : int list }

type setup = {
  inst : instance;
  base : Core.Mcmf_fptas.solve_state;
  points : point array;
}

let setup () =
  let inst = instance spec ~seed:instance_seed in
  let g = graph inst in
  let base =
    Span.call ~layer:"flow" "baseline" (fun () ->
        Core.Mcmf_fptas.solve_with_state ~params:(fptas eps (gap /. 2.0))
          ~track_groups:true g inst.cs)
  in
  let links = Core.Graph.num_edges g in
  let points =
    List.mapi
      (fun i (cls, k) ->
        let st = Random.State.make [| instance_seed; 7; i |] in
        (* floor (fraction · links) = k exactly. *)
        let fraction = (float_of_int k +. 0.5) /. float_of_int links in
        let g, failed =
          Span.call ~layer:"topology" ("mask " ^ string_of_int i) (fun () ->
              Core.Resilience.fail_arcs_connected st g ~fraction)
        in
        { cls; nlinks = List.length failed; g; failed })
      (grid ~links)
  in
  { inst; base; points = Array.of_list points }

let delta s i =
  let p = s.points.(i) in
  Span.call ~layer:"flow" ("delta " ^ string_of_int i) (fun () ->
      Core.Mcmf_fptas.resolve_after_failure ~params:(fptas eps gap)
        ~warm:s.base.Core.Mcmf_fptas.warm ~failed:p.failed p.g s.inst.cs)

type timing = {
  per_point : float array array;  (** ms of each point, one per round *)
  results : Core.Mcmf_fptas.solve_state rounds;
  elapsed : float;
}

let same (a : Core.Mcmf_fptas.solve_state) (b : Core.Mcmf_fptas.solve_state) =
  let module F = Core.Mcmf_fptas in
  bits_equal a.F.result.F.lambda_lower b.F.result.F.lambda_lower
  && bits_equal a.F.result.F.lambda_upper b.F.result.F.lambda_upper
  && a.F.warm.F.w_executed = b.F.warm.F.w_executed

(* Whole rounds for [seconds]. Traced, the rounds alternate between
   tracing off and on (at least two of each) and the tracing overhead is
   returned too. *)
let timed_rounds ?(traced = false) s ~seconds =
  let per_point = Array.map (fun _ -> Stats.samples ()) s.points in
  let results = rounds () in
  let round _ =
    keep results ~same ~label:(Printf.sprintf "point %d")
      (Array.mapi
         (fun i _ ->
           let t0 = now () in
           let r = delta s i in
           Stats.push per_point.(i) (ms_since t0);
           r)
         s.points);
    Array.length s.points
  in
  let t0 = now () in
  let overhead =
    if traced then alternate ~min_rounds:4 ~seconds round
    else (ignore (rounds_for ~seconds (fun k -> ignore (round k))); 0.0)
  in
  ({ per_point = Array.map Stats.to_array per_point; results; elapsed = since t0 }, overhead)

(* Cold solves of every masked graph, outside the timed phase; on the
   pool unless traced, where each is timed alone. *)
let cold_solves ~trace s =
  let solve i =
    let p = s.points.(i) in
    Span.call ~layer:"flow" ("cold " ^ string_of_int i) (fun () ->
        Core.Mcmf_fptas.solve ~params:(fptas eps gap) p.g s.inst.cs)
  in
  let n = Array.length s.points in
  if trace then Array.init n solve
  else begin
    let out = Array.make n None in
    Core.Pool.run ~total:n (fun i -> out.(i) <- Some (solve i));
    Array.map Option.get out
  end

(* The checks of one point's first-round result. A flow that breaks
   conservation is the delta path's known fault: the point counts as a
   failed operation. Every other violation is an error. *)
let check_point s colds i (st : Core.Mcmf_fptas.solve_state) =
  let module F = Core.Mcmf_fptas in
  let p = s.points.(i) in
  let r = st.F.result and b = s.base.F.result in
  let lo = r.F.lambda_lower and hi = r.F.lambda_upper in
  let c = Check.of_graph p.g s.inst.cs in
  let cold = colds.(i) in
  let faulty = Check.conservation c ~lambda:lo ~arc_flow:r.F.arc_flow <> [] in
  let errs =
    (if r.F.converged then [] else [ "not converged" ])
    @ Check.interval ~gap ~lo ~hi
    @ Check.arcs_within_capacity c ~arc_flow:r.F.arc_flow
    @ (if faulty then [] else Check.routed_volume c ~lambda:lo ~arc_flow:r.F.arc_flow)
    @ Check.within_capacity_bound c ~lo
    @ Check.failed_idle c ~failed:p.failed ~arc_flow:r.F.arc_flow
    @ (if lo <= b.F.lambda_upper then []
       else
         [ Printf.sprintf "lambda_lo %.17g above the baseline's lambda_hi %.17g" lo
             b.F.lambda_upper ])
    @
    if cold.F.lambda_lower <= hi && lo <= cold.F.lambda_upper then []
    else
      [ Printf.sprintf "[%.17g, %.17g] misses the cold solve's [%.17g, %.17g]" lo hi
          cold.F.lambda_lower cold.F.lambda_upper ]
  in
  let what = Printf.sprintf "point %d (%s, %d links)" i p.cls p.nlinks in
  if faulty then
    prerr_endline
      (what ^ " failed: "
      ^ String.concat "; " (Check.conservation c ~lambda:lo ~arc_flow:r.F.arc_flow));
  (faulty, List.map (fun e -> what ^ ": " ^ e) errs)

let check s (t : timing) colds =
  let module F = Core.Mcmf_fptas in
  let b = s.base.F.result in
  let base_errs =
    check_solve ~what:"baseline" ~gap:(gap /. 2.0) ~lo:b.F.lambda_lower
      ~hi:b.F.lambda_upper ~arc_flow:b.F.arc_flow s.inst
  in
  let verdicts = Array.mapi (check_point s colds) t.results.first in
  let faulty = Array.map fst verdicts in
  (faulty, base_errs @ List.concat_map snd (Array.to_list verdicts) @ List.rev t.results.changed)

(* The points that did not fail, optionally of one class. *)
let ok_points s faulty ?cls () =
  List.filter
    (fun i -> (not faulty.(i)) && match cls with Some c -> s.points.(i).cls = c | None -> true)
    (List.init (Array.length s.points) Fun.id)

(* Each grid point is its own operation, so times are summarized per
   point first: medians are medians over points of each point's median
   time, and the slowest point's median stands in for the tail, which
   this run has too few operations for. *)
let end_to_end s t faulty ~setup_s ~rss =
  let point_ms i = Stats.median t.per_point.(i) in
  let over pts = Stats.median (Array.of_list (List.map point_ms pts)) in
  let count pts = List.fold_left (fun a i -> a + Array.length t.per_point.(i)) 0 pts in
  let all = ok_points s faulty () and wide = ok_points s faulty ~cls:"wide" () in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (float_of_int (count all) /. t.elapsed);
    m "p50_ms" "ms" (over all);
    m "p90_ms" "ms" (List.fold_left (fun a i -> Float.max a (point_ms i)) 0.0 all);
    (* The wide points are this workload's cold class: the widest takes
       the cold-restart fallback. *)
    m "cold_p50_ms" "ms" (over wide);
    m "cold_ops_per_s" "1/s" (float_of_int (count wide) /. t.elapsed);
    m "peak_rss_mb" "MB" rss;
  ]

let layers s (t : timing) ~overhead_pct =
  let module F = Core.Mcmf_fptas in
  let f = float_of_int in
  let n = Array.length s.points in
  let first = t.results.first in
  let round_spans = Array.init n (fun i -> List.hd (Span.named ("delta " ^ string_of_int i))) in
  let csum name = Array.fold_left (fun a sp -> a + Span.counter sp name) 0 round_spans in
  let median_ms i = Stats.median t.per_point.(i) in
  let cold_ms i =
    match Span.last ("cold " ^ string_of_int i) with Some sp -> Span.ms sp | None -> nan
  in
  let in_class c = List.filter (fun i -> s.points.(i).cls = c) (List.init n Fun.id) in
  let class_median c g = Stats.median (Array.of_list (List.map g (in_class c))) in
  let executed = Array.map (fun (st : F.solve_state) -> st.F.warm.F.w_executed) first in
  let ledger = Array.map (fun (st : F.solve_state) -> st.F.warm.F.w_phases) first in
  let count p = Array.fold_left (fun a x -> if p x then a + 1 else a) 0 in
  [
    m "resilience.mask_ms" "ms"
      (List.fold_left (fun a i -> a +. Span.mean_ms ("mask " ^ string_of_int i)) 0.0
         (List.init n Fun.id));
    m "fptas.baseline_ms" "ms" (Span.mean_ms "baseline");
  ]
  @ List.map (fun c -> m ("delta.solve_ms." ^ c) "ms" (class_median c median_ms)) classes
  @ [
      m "delta.executed_phases" "count" (f (Array.fold_left ( + ) 0 executed));
      m "delta.zero_phase_points" "count" (f (count (fun x -> x = 0) executed));
      m "delta.fallbacks" "count"
        (f (count Fun.id (Array.mapi (fun i e -> e > 0 && e = ledger.(i)) executed)));
    ]
  @ List.map
      (fun c ->
        m ("delta.vs_cold." ^ c) "ratio" (class_median c (fun i -> median_ms i /. cold_ms i)))
      classes
  @ [
      m "fptas.phases" "count" (f (csum "fptas.phases"));
      m "fptas.dual_checks" "count" (f (csum "fptas.dual_checks"));
      m "fptas.tree_rebuilds" "count" (f (csum "fptas.tree_rebuilds"));
      m "fptas.eps_halvings" "count" (f (csum "fptas.eps_halvings"));
      m "fptas.minor_words" "words"
        (Array.fold_left (fun a sp -> a +. sp.Span.minor_words) 0.0 round_spans);
      m "fptas.ns_per_arc_scanned" "ns"
        (1e6 *. Array.fold_left (fun a sp -> a +. Span.ms sp) 0.0 round_spans
         /. f (max 1 (csum "dijkstra.arcs_scanned")));
      m "dijkstra.runs" "count" (f (csum "dijkstra.runs"));
      m "dijkstra.arcs_scanned" "count" (f (csum "dijkstra.arcs_scanned"));
      m "dijkstra.heap_pops" "count" (f (csum "dijkstra.heap_pops"));
      m "dijkstra.tree_repairs" "count" (f (csum "dijkstra.tree_repairs"));
      m "pool.tasks" "count" (f (csum "pool.tasks"));
      m "trace.overhead_pct" "%" overhead_pct;
    ]

(* Phases, Dijkstra runs, arcs scanned and tree repairs of each point
   repeat exactly from one traced round to the next. *)
let repeat_counts s =
  let names =
    [ "fptas.phases"; "dijkstra.runs"; "dijkstra.arcs_scanned"; "dijkstra.tree_repairs" ]
  in
  List.concat
    (List.init (Array.length s.points) (fun i ->
         match Span.named ("delta " ^ string_of_int i) with
         | [] -> [ Printf.sprintf "point %d: no traced delta-solve" i ]
         | sp0 :: rest ->
             List.concat_map
               (fun sp ->
                 List.filter_map
                   (fun n ->
                     if Span.counter sp n = Span.counter sp0 n then None
                     else
                       Some
                         (Printf.sprintf "point %d: %s is %d in one run and %d in another" i
                            n (Span.counter sp0 n) (Span.counter sp n)))
                   names)
               rest))

let run (o : opts) =
  Core.Pool.set_workers (Core.Cli.default_jobs () - 1);
  if o.trace then Span.enable true;
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    let s, t = timed setup in
    times := t :: !times;
    last := Some s
  done;
  let s = Option.get !last in
  let setup_s = Stats.median (Array.of_list !times) in
  let npoints = Array.length s.points in
  let t, overhead_pct = timed_rounds ~traced:o.trace s ~seconds:o.seconds in
  let rss = peak_rss_mb 0 in
  let faulty, errors = check s t (cold_solves ~trace:o.trace s) in
  let rounds = t.results.count in
  {
    attempted = rounds * npoints;
    failed = rounds * Array.fold_left (fun a b -> if b then a + 1 else a) 0 faulty;
    errors = (if o.trace then errors @ repeat_counts s else errors);
    metrics =
      (if o.trace then layers s t ~overhead_pct else end_to_end s t faulty ~setup_s ~rss);
  }
