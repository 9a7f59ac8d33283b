(* Benchmark entry point: runs one workload and prints, as the last line of
   standard output, one JSON object with the verdict of the output
   checks, the operations attempted and failed, and the metrics —
   end-to-end ones untraced, per-layer ones with --trace 1.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --served PATH --out DIR *)

open Common

let workloads =
  [ ("solve-cold", Solve_cold.run); ("failure-sweep", Failure_sweep.run);
    ("serve-mixed", Serve_mixed.run) ]

(* Every per-layer metric, so each traced run reports the same names; a
   layer a workload does not enter reads 0. *)
let per_layer =
  [ ("topology.build_ms", "ms"); ("traffic.build_ms", "ms");
    ("resilience.mask_ms", "ms") ]
  @ List.map (fun s -> ("fptas.solve_ms." ^ slug s, "ms")) Solve_cold.specs
  @ [ ("fptas.phases", "count"); ("fptas.dual_checks", "count");
      ("fptas.tree_rebuilds", "count"); ("fptas.eps_halvings", "count");
      ("fptas.minor_words", "words"); ("fptas.ns_per_arc_scanned", "ns");
      ("throughput.metrics_ms", "ms"); ("solve.layer_coverage_pct", "%");
      ("fptas.baseline_ms", "ms") ]
  @ List.map (fun c -> ("delta.solve_ms." ^ c, "ms")) Failure_sweep.classes
  @ [ ("delta.executed_phases", "count"); ("delta.zero_phase_points", "count");
      ("delta.fallbacks", "count") ]
  @ List.map (fun c -> ("delta.vs_cold." ^ c, "ratio")) Failure_sweep.classes
  @ [ ("dijkstra.runs", "count"); ("dijkstra.arcs_scanned", "count");
      ("dijkstra.heap_pops", "count"); ("dijkstra.tree_repairs", "count");
      ("dijkstra.sweep_ns_per_arc", "ns"); ("pool.tasks", "count");
      ("request.parse_us", "us");
      ("request.cache_key_us", "us"); ("request.resolve_ms", "ms");
      ("request.digest_us", "us"); ("server.solve_resolved_ms", "ms");
      ("serve.solve.led", "count"); ("server.request_ms", "ms");
      ("reqstream.parse_us", "us"); ("lru.find_us", "us");
      ("engine.cache.hit_ratio", "ratio"); ("engine.batch.mean_jobs", "count");
      ("client.connects", "count"); ("codec.encode_us", "us");
      ("codec.decode_us", "us"); ("store.add_us", "us"); ("store.find_us", "us");
      ("codec.bytes", "B"); ("trace.overhead_pct", "%") ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     --served PATH --out DIR";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let o =
    {
      seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace = int "trace" <> 0;
      served = get "served";
      out_dir = get "out";
    }
  in
  (workload, run, o)

let json_number x = Printf.sprintf "%.17g" x

let () =
  let workload, run, o = parse Sys.argv in
  let r = run o in
  let metrics =
    if not o.trace then r.metrics
    else
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (x : metric) -> x.name = name) r.metrics with
          | Some x -> x
          | None -> m name unit 0.0)
        per_layer
  in
  let errors =
    r.errors
    @ List.filter_map
        (fun (x : metric) ->
          if Float.is_finite x.value then None
          else Some (Printf.sprintf "metric %s is not a number" x.name))
        metrics
  in
  if o.trace then
    Span.write
      (Filename.concat o.out_dir (Printf.sprintf "trace-%s-%d.json" workload o.seed));
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) errors;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = []) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (x : metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_number (if Float.is_finite x.value then x.value else 0.0))
              x.unit)
          metrics))
