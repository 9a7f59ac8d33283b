(* solve-cold: cold Throughput.compute solves, as [topobench throughput]
   runs them — no result store, no warm state, the pool sized like the
   CLIs. One round solves every instance of the fixed set once. *)

open Common

let eps = 0.1
let gap = 0.1

(* Size classes and their instance counts. Each RRG size has two
   instances, drawn from a base seed and from it + 10000, so that no
   single draw's phase count sets a class's time. The base seed is
   --seed, except for the largest class, which the tail metric times:
   single rrg:200 draws ran 93 to 144 phases (1.5 to 2.6 s) across
   seeds, so a seeded tail would measure the draw, not the program.
   Its instances are always the default seed's. *)
let classes =
  [ ("rrg:100,15,10", 2); ("rrg:150,15,10", 2); ("rrg:200,15,10", 2);
    ("fat-tree:12", 1); ("rewired:24,16,120", 1) ]

let specs = List.map fst classes
let largest = "rrg:200,15,10"
let default_seed = 1
let fat_tree_k = 12
let setups = 3

let solver = Core.Throughput.Fptas (fptas eps gap)

(* An instance of a class; [label] names it in spans. *)
type inst = { label : string; i : instance }

let setup ~seed =
  let insts =
    List.concat_map
      (fun (spec, k) ->
        List.init k (fun v ->
            let base = if spec = largest then default_seed else seed in
            { label = Printf.sprintf "%s/%d" spec v; i = instance spec ~seed:(base + (v * 10_000)) }))
      classes
  in
  (* One untimed warm-up solve: code paths, heap and pool reach their
     steady state before the clock starts. It solves the smallest class
     drawn from the default seed, so that set-up time does not follow the
     phase count of the seed's draw. *)
  let topo = build_topology (fst (List.hd classes)) ~seed:default_seed in
  ignore (Core.Throughput.compute ~solver topo.Core.Topology.graph (build_traffic topo ~seed:default_seed));
  Array.of_list insts

let compute x =
  Span.call ~layer:"flow" ("compute " ^ x.label) (fun () ->
      Core.Throughput.compute ~solver (graph x.i) x.i.cs)

let same (a : Core.Throughput.t) (b : Core.Throughput.t) =
  let lo, hi = a.Core.Throughput.lambda_bounds and lo0, hi0 = b.Core.Throughput.lambda_bounds in
  bits_equal lo lo0 && bits_equal hi hi0

(* One round: every instance once, results checked against the first
   round's. [times] (optional) collects each instance's times. *)
let round insts results ?times () =
  keep results ~same ~label:(fun k -> insts.(k).label)
    (Array.mapi
       (fun k x ->
         let t0 = now () in
         let r = compute x in
         Option.iter (fun t -> Stats.push t.(k) (ms_since t0)) times;
         r)
       insts)

(* Time whole rounds for [seconds]. *)
let timed_rounds insts ~seconds =
  let times = Array.map (fun _ -> Stats.samples ()) insts in
  let results = rounds () in
  let _, elapsed = rounds_for ~seconds (fun _ -> round insts results ~times ()) in
  (Array.map Stats.to_array times, results, elapsed)

let check insts (results : Core.Throughput.t rounds) =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun k x ->
            let r = results.first.(k) in
            let lo, hi = r.Core.Throughput.lambda_bounds in
            check_solve ~what:x.label ~gap ~lo ~hi ~arc_flow:r.Core.Throughput.arc_flow x.i
            @
            if x.i.spec = "fat-tree:" ^ string_of_int fat_tree_k then
              List.map (fun e -> x.label ^ ": " ^ e)
                (Check.fat_tree ~k:fat_tree_k ~servers:x.i.topo.Core.Topology.servers
                   (Check.of_graph (graph x.i) x.i.cs) ~lo ~hi)
            else [])
          insts))
  @ List.rev results.changed

(* Each instance is its own operation: [p50_ms] is the median over
   instances of each one's median time. A run has too few solves for a
   tail percentile, so [p90_ms] reports the largest class: the mean of
   its instances' median times. (The median of their pooled samples
   falls between the two instances, where one slow sample moves it.) *)
let end_to_end insts ~setup_s ~times ~elapsed ~rss =
  let ops = float_of_int (Array.fold_left (fun a x -> a + Array.length x) 0 times) in
  let p50 = Stats.median (Array.map Stats.median times) in
  let tail =
    let xs =
      List.filteri (fun k _ -> insts.(k).i.spec = largest) (Array.to_list times)
    in
    List.fold_left (fun a x -> a +. Stats.median x) 0.0 xs /. float_of_int (List.length xs)
  in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ops /. elapsed);
    m "p50_ms" "ms" p50;
    m "p90_ms" "ms" tail;
    (* Every operation here is a cold solve. *)
    m "cold_p50_ms" "ms" p50;
    m "cold_ops_per_s" "1/s" (ops /. elapsed);
    m "peak_rss_mb" "MB" rss;
  ]

(* Per-layer figures from the traced phases. Times are means over the
   spans of one name; counters come from one solve per instance. *)
let layers insts ~setup_spans ~overhead_pct =
  let f = float_of_int in
  let of_inst name = Array.map (fun x -> Span.mean_ms (name ^ " " ^ x.label)) insts in
  let solve_ms = of_inst "solve" and pair_ms = of_inst "pair-distance" in
  (* The layer phase's two computes of each instance: its last two. *)
  let compute_ms =
    Array.map
      (fun x ->
        match List.rev (Span.named ("compute " ^ x.label)) with
        | a :: b :: _ -> (Span.ms a +. Span.ms b) /. 2.0
        | _ -> nan)
      insts
  in
  let solve_spans = Array.map (fun x -> Option.get (Span.last ("solve " ^ x.label))) insts in
  let total a = Array.fold_left ( +. ) 0.0 a in
  let csum name = Array.fold_left (fun acc s -> acc + Span.counter s name) 0 solve_spans in
  let scanned = csum "dijkstra.arcs_scanned" in
  (* Over the whole set: single calls on this kind of machine scatter by
     ±10%, which a per-instance ratio would report as a gap. *)
  let coverage = 100.0 *. (total solve_ms +. total pair_ms) /. total compute_ms in
  let class_ms spec =
    let xs = List.filteri (fun k _ -> insts.(k).i.spec = spec) (Array.to_list solve_ms) in
    List.fold_left ( +. ) 0.0 xs /. f (List.length xs)
  in
  let sweep = Option.get (Span.last "sweep") in
  setup_spans
  @ List.map (fun spec -> m ("fptas.solve_ms." ^ slug spec) "ms" (class_ms spec)) specs
  @ [
      m "fptas.phases" "count" (f (csum "fptas.phases"));
      m "fptas.dual_checks" "count" (f (csum "fptas.dual_checks"));
      m "fptas.tree_rebuilds" "count" (f (csum "fptas.tree_rebuilds"));
      m "fptas.eps_halvings" "count" (f (csum "fptas.eps_halvings"));
      m "fptas.minor_words" "words"
        (Array.fold_left (fun a s -> a +. s.Span.minor_words) 0.0 solve_spans);
      m "fptas.ns_per_arc_scanned" "ns"
        (1e6 *. Array.fold_left (fun a s -> a +. Span.ms s) 0.0 solve_spans
         /. f (max 1 scanned));
      m "throughput.metrics_ms" "ms" (total pair_ms);
      m "dijkstra.runs" "count" (f (csum "dijkstra.runs"));
      m "dijkstra.arcs_scanned" "count" (f scanned);
      m "dijkstra.heap_pops" "count" (f (csum "dijkstra.heap_pops"));
      m "dijkstra.tree_repairs" "count" (f (csum "dijkstra.tree_repairs"));
      m "dijkstra.sweep_ns_per_arc" "ns"
        (1e6 *. Span.ms sweep /. f (max 1 (Span.counter sweep "dijkstra.arcs_scanned")));
      m "pool.tasks" "count"
        (f
           (List.fold_left (fun a sp -> a + Span.counter sp "pool.tasks") 0
              (List.concat_map (fun x -> Span.named ("compute " ^ x.label)) (Array.to_list insts))));
      m "solve.layer_coverage_pct" "%" coverage;
      m "trace.overhead_pct" "%" overhead_pct;
    ]

(* Work counts the program computes deterministically must repeat
   exactly: the solve of each instance against every traced compute of
   it. *)
let repeat_counts insts =
  let names =
    [ "fptas.phases"; "fptas.dual_checks"; "dijkstra.runs"; "dijkstra.arcs_scanned" ]
  in
  List.concat_map
    (fun x ->
      match Span.last ("solve " ^ x.label) with
      | None -> [ x.label ^ ": no traced solve" ]
      | Some s ->
          List.concat_map
            (fun (c : Span.t) ->
              List.filter_map
                (fun n ->
                  if Span.counter c n = Span.counter s n then None
                  else
                    Some
                      (Printf.sprintf "%s: %s is %d in one run and %d in another" x.label n
                         (Span.counter c n) (Span.counter s n)))
                names)
            (Span.named ("compute " ^ x.label)))
    (Array.to_list insts)

(* All-sources full sweeps on a largest-class graph at the solver's
   initial lengths (1 / capacity), timed from outside. *)
let sweep inst =
  let g = graph inst in
  let csr = Core.Graph.csr g in
  let n = Core.Graph.n g in
  let lengths =
    Array.init (Core.Graph.num_arcs g) (fun a ->
        let c = Core.Graph.arc_cap g a in
        if c > 0.0 then 1.0 /. c else infinity)
  in
  let scratch = Core.Dijkstra.make_scratch n in
  let tree = Core.Dijkstra.shortest_tree g ~lengths ~src:0 in
  Span.call ~layer:"graph" "sweep" (fun () ->
      for src = 0 to n - 1 do
        Core.Dijkstra.shortest_tree_full scratch csr ~lengths ~src tree
      done)

(* Layer phase: per instance, the operation and the layer calls it makes,
   in the order compute, layers, layers, compute, so a linear drift of
   the machine's speed cancels from their ratio. *)
let layer_phase insts =
  Array.iter
    (fun x ->
      let pairs =
        Array.to_list
          (Array.map (fun (c : Core.Commodity.t) -> (c.src, c.dst, c.demand)) x.i.cs)
      in
      let layers () =
        ignore
          (Span.call ~layer:"flow" ("solve " ^ x.label) (fun () ->
               Core.Mcmf_fptas.solve ~params:(fptas eps gap) (graph x.i) x.i.cs));
        ignore
          (Span.call ~layer:"graph" ("pair-distance " ^ x.label) (fun () ->
               Core.Graph_metrics.weighted_pair_distance (graph x.i) ~pairs))
      in
      ignore (compute x);
      layers ();
      layers ();
      ignore (compute x))
    insts

let run (o : opts) =
  Core.Pool.set_workers (Core.Cli.default_jobs () - 1);
  if o.trace then Span.enable true;
  let setup_times = ref [] and insts = ref [||] in
  for _ = 1 to setups do
    let i, s = timed (fun () -> setup ~seed:o.seed) in
    setup_times := s :: !setup_times;
    insts := i
  done;
  let insts = !insts in
  let setup_s = Stats.median (Array.of_list !setup_times) in
  if not o.trace then begin
    let times, results, elapsed = timed_rounds insts ~seconds:o.seconds in
    let rss = peak_rss_mb 0 in
    {
      attempted = Array.length insts * results.count;
      failed = 0;
      errors = check insts results;
      metrics = end_to_end insts ~setup_s ~times ~elapsed ~rss;
    }
  end
  else begin
    (* Topology and traffic builds of the three set-ups, per set-up. *)
    let build prefix =
      List.fold_left
        (fun a (s : Span.t) -> if String.starts_with ~prefix s.name then a +. Span.ms s else a)
        0.0 !Span.spans
      /. float_of_int setups
    in
    let setup_spans =
      [ m "topology.build_ms" "ms" (build "build "); m "traffic.build_ms" "ms" (build "traffic ") ]
    in
    let results = rounds () in
    let overhead_pct =
      alternate ~seconds:o.seconds (fun _ ->
          round insts results ();
          Array.length insts)
    in
    layer_phase insts;
    sweep (List.find (fun x -> x.i.spec = largest) (Array.to_list insts)).i;
    {
      attempted = Array.length insts * results.count;
      failed = 0;
      errors = check insts results @ repeat_counts insts;
      metrics = layers insts ~setup_spans ~overhead_pct;
    }
  end
