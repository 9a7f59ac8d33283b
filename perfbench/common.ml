(* What every workload shares: the run's options, its report, instance
   construction as the CLIs do it, and timing helpers. *)

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  served : string;  (** path of the dcn_served executable *)
  out_dir : string;  (** scratch directory for stores, ports and traces *)
}

type metric = { name : string; value : float; unit : string }

type report = {
  attempted : int;
  failed : int;
  errors : string list;  (** output-check violations; empty = correct *)
  metrics : metric list;
}

let m name unit value = { name; value; unit }

let now () = Dcn_obs.Clock.now_ns ()
let since t0 = Dcn_obs.Clock.elapsed_s t0
let ms_since t0 = 1e3 *. since t0

(* [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* Run [round] repeatedly until [seconds] have passed, always finishing
   the round under way, so every run attempts whole rounds of the same
   operations. At least [min_rounds] (default 1) rounds run. Returns the
   round count and the elapsed seconds. *)
let rounds_for ?(min_rounds = 1) ~seconds round =
  let t0 = now () in
  let k = ref 0 in
  while !k < min_rounds || since t0 < seconds do
    round !k;
    incr k
  done;
  (!k, since t0)

(* Results of whole rounds: the first round's are kept, and every later
   round must reproduce them ([same]); a run keeps one round in memory,
   however many it makes. *)
type 'a rounds = {
  mutable first : 'a array;
  mutable count : int;
  mutable changed : string list;  (** what a later round did not reproduce *)
}

let rounds () = { first = [||]; count = 0; changed = [] }

let keep t ~same ~label r =
  if t.count = 0 then t.first <- r
  else
    Array.iteri
      (fun i x ->
        if not (same x t.first.(i)) then
          t.changed <- (label i ^ ": a later round changed the result") :: t.changed)
      r;
  t.count <- t.count + 1

(* The traced run's rounds alternate between tracing off and on, so a
   drift in the machine's speed falls on both alike. [round k] runs one
   round and returns the operations it completed. Returns the tracing
   overhead: how much lower the traced rounds' rate is, in percent of
   the untraced rate. Tracing is left on. *)
let alternate ?(min_rounds = 2) ~seconds round =
  let time = Array.make 2 0.0 and ops = Array.make 2 0 in
  ignore
    (rounds_for ~min_rounds ~seconds (fun k ->
         let on = k mod 2 in
         Span.enable (on = 1);
         let t0 = now () in
         let n = round k in
         time.(on) <- time.(on) +. since t0;
         ops.(on) <- ops.(on) + n));
  Span.enable true;
  let rate i = float_of_int ops.(i) /. time.(i) in
  100.0 *. (rate 0 -. rate 1) /. rate 0

(* The kernel's peak resident set of a process, in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* An instance as [topobench throughput] builds it: the topology from
   [seed], permutation traffic from the stream [seed; 1]. *)
type instance = {
  spec : string;
  topo : Core.Topology.t;
  cs : Core.Commodity.t array;
}

let spec_of s =
  match Core.Cli.parse_topo_spec s with
  | Ok spec -> spec
  | Error e -> invalid_arg e

let build_topology spec ~seed = Core.Cli.build_topology (spec_of spec) ~seed

let build_traffic (topo : Core.Topology.t) ~seed =
  let st = Random.State.make [| seed; 1 |] in
  Core.Traffic.to_commodities
    (Core.Cli.make_traffic Core.Cli.Perm st ~servers:topo.Core.Topology.servers)

let instance spec ~seed =
  let topo =
    Span.call ~layer:"topology" ("build " ^ spec) (fun () ->
        build_topology spec ~seed)
  in
  let cs =
    Span.call ~layer:"traffic" ("traffic " ^ spec) (fun () ->
        build_traffic topo ~seed)
  in
  { spec; topo; cs }

let graph i = i.topo.Core.Topology.graph

(* A spec as a metric-name component: "rrg:100,15,10" -> "rrg-100-15-10". *)
let slug spec = String.map (function ':' | ',' -> '-' | c -> c) spec

let fptas eps gap = Core.Cli.params_of eps gap

(* Per-solve checks shared by the solver workloads. *)
let check_solve ~what ~gap ~lo ~hi ~arc_flow inst =
  let c = Check.of_graph (graph inst) inst.cs in
  List.map
    (fun e -> what ^ ": " ^ e)
    (Check.interval ~gap ~lo ~hi
    @ Check.flow c ~lambda:lo ~arc_flow
    @ Check.within_capacity_bound c ~lo)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
