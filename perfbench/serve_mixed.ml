(* serve-mixed: dcn_served --engine epoll in a child process, driven by a
   closed-loop keep-alive client. Connection 0 sends cold requests (fresh
   seeds: resolve, solve on the pool, render, store write, LRU insert);
   the other connections repeat the hot bodies solved in set-up, which
   the daemon answers from its LRU. *)

open Common
module Metrics = Dcn_obs.Metrics
module Request = Dcn_serve.Request

let topo = Core.Cli.Rrg (40, 10, 6)
let eps = 0.1
let gap = 0.1
let hot_bodies = 4
let setups = 3

(* At most one connection per core, and never fewer than two, so one
   lane stays cold and one hot. *)
let conns () = max 2 (Core.Cli.default_jobs ())

let request seed =
  {
    Request.topology = Request.Spec topo;
    seed;
    traffic = Core.Cli.Perm;
    eps;
    gap;
    routing = Request.Optimal;
    timeout_s = None;
  }

(* Seeds: hot ones first, cold ones after; disjoint across --seed. *)
let base seed = 1_000 + (seed * 100_000)
let hot_seed seed i = base seed + i
let cold_seed seed k = base seed + 100 + k

let solve_wire req = Client.wire ~meth:"POST" ~path:"/solve" ~body:(Request.to_body req) ()

type served = {
  d : Client.daemon;
  hot : (string * string) array;  (** wire, reference body *)
}

(* Exec until /healthz answers, then solve the hot set once. The daemon
   gets one pool domain: the cold connection keeps at most one solve in
   flight, and an idle second domain would still join every
   stop-the-world minor collection the event loop waits on. *)
let setup (o : opts) k =
  let dir = Filename.concat o.out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let d = Client.start ~served:o.served ~jobs:1 ~dir in
  let c = Client.connect d.Client.port in
  let hot =
    Array.init hot_bodies (fun i ->
        let w = solve_wire (request (hot_seed o.seed i)) in
        match Client.roundtrip c w with
        | 200, body -> (w, body)
        | st, body -> failwith (Printf.sprintf "hot set-up solve: %d %s" st body))
  in
  Client.close c;
  { d; hot }

let metrics_of d =
  match Client.get d.Client.port "/metrics" with
  | 200, body -> (
      match Dcn_serve.Metrics_io.snapshot_of_body body with
      | Ok s -> s
      | Error e -> failwith ("/metrics: " ^ e))
  | st, _ -> failwith (Printf.sprintf "/metrics answered %d" st)

type lane = {
  c : Client.conn;
  is_cold : bool;
  mutable inflight : (int64 * int) option;
      (** send time and what was sent: the hot body's index, or the cold
          request's seed *)
  mutable sent : int;
}

type load = {
  hot_ms : float array;
  hot_at : float array;  (** completion time of each hot request, s into the phase *)
  done_at : float array;  (** completion time of every request *)
  cold_ms : float array;
  cold : (int * string) list;  (** seed, body *)
  errors : string list;
  attempted : int;
  failed : int;  (** answered with another status than 200 *)
  elapsed : float;
}

(* The closed loop: each lane sends its next request as soon as the
   previous response is complete, until [seconds] pass; the requests in
   flight then finish. Traced, tracing is on in odd seconds only. *)
let drive ~traced s ~seed ~seconds ~next_cold =
  let hot = Stats.samples () and hot_at = Stats.samples () in
  let done_at = Stats.samples () in
  let cold = Stats.samples () in
  let cold_bodies = ref [] and errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let lanes =
    Array.init (conns ()) (fun i ->
        { c = Client.connect s.d.Client.port; is_cold = i = 0; inflight = None; sent = 0 })
  in
  let fire l =
    let what, w =
      if l.is_cold then begin
        let sd = cold_seed seed !next_cold in
        incr next_cold;
        (sd, solve_wire (request sd))
      end
      else
        let i = l.sent mod hot_bodies in
        (i, fst s.hot.(i))
    in
    l.sent <- l.sent + 1;
    l.inflight <- Some (now (), what);
    incr attempted;
    Client.send l.c w
  in
  let t0 = now () in
  let complete l (status, body) =
    let sent_at, what = Option.get l.inflight in
    l.inflight <- None;
    let done_ns = now () in
    let ms = 1e3 *. Dcn_obs.Clock.seconds_between sent_at done_ns in
    let at = since t0 in
    Stats.push done_at at;
    let span_name = if l.is_cold then "cold request" else "hot request" in
    Span.interval ~layer:"client" span_name ~start_ns:sent_at ~end_ns:done_ns;
    if traced then Span.enable (int_of_float at mod 2 = 1);
    if status <> 200 then begin
      incr failed;
      prerr_endline (Printf.sprintf "%s answered %d: %s" span_name status body)
    end
    else if l.is_cold then begin
      Stats.push cold ms;
      cold_bodies := (what, body) :: !cold_bodies
    end
    else begin
      Stats.push hot ms;
      Stats.push hot_at at;
      if body <> snd s.hot.(what) then
        errors := "a hot body differs from its first answer" :: !errors
    end
  in
  Array.iter fire lanes;
  let rec loop () =
    let busy = List.filter (fun l -> l.inflight <> None) (Array.to_list lanes) in
    if busy <> [] then begin
      let fds = List.map (fun l -> l.c.Client.fd) busy in
      let ready, _, _ = Unix.select fds [] [] 1.0 in
      List.iter
        (fun l ->
          if List.mem l.c.Client.fd ready then begin
            if not (Client.fill l.c) then failwith "daemon closed a connection";
            match Client.take l.c with
            | None -> ()
            | Some r ->
                complete l r;
                if since t0 < seconds then fire l
          end)
        busy;
      loop ()
    end
  in
  loop ();
  let elapsed = since t0 in
  Array.iter (fun l -> Client.close l.c) lanes;
  {
    hot_ms = Stats.to_array hot;
    hot_at = Stats.to_array hot_at;
    done_at = Stats.to_array done_at;
    cold_ms = Stats.to_array cold;
    cold = List.rev !cold_bodies;
    errors = List.rev !errors;
    attempted = !attempted;
    failed = !failed;
    elapsed;
  }

(* Every distinct body against an in-process solve of its request, and
   each instance against the capacity bound. *)
let verify bodies =
  let bodies = Array.of_list bodies in
  let errs = Array.make (Array.length bodies) [] in
  Core.Pool.run ~total:(Array.length bodies) (fun i ->
      let seed, body = bodies.(i) in
      let req = request seed in
      let r = Request.resolve req in
      let g = r.Request.topo.Core.Topology.graph in
      let t =
        Core.Throughput.compute ~solver:(Core.Throughput.Fptas (Request.params req)) g
          r.Request.commodities
      in
      let lo, hi = t.Core.Throughput.lambda_bounds in
      errs.(i) <-
        List.map
          (fun e -> Printf.sprintf "request seed %d: %s" seed e)
          (Check.body_matches body ~lambda:t.Core.Throughput.lambda ~lo ~hi
          @ Check.interval ~gap ~lo ~hi
          @ Check.within_capacity_bound (Check.of_graph g r.Request.commodities) ~lo));
  List.concat (Array.to_list errs)

(* Median over the whole one-second windows of the phase of a statistic
   of the hot latencies completed in each window: a transient stall of
   the machine moves one window, not the figure. *)
let per_window load stat =
  let nw = max 1 (int_of_float load.elapsed) in
  let ws = Array.init nw (fun _ -> Stats.samples ()) in
  Array.iteri
    (fun i at ->
      let w = int_of_float at in
      if w < nw then Stats.push ws.(w) load.hot_ms.(i))
    load.hot_at;
  Stats.median
    (Array.of_list
       (List.filter_map
          (fun w -> if w.Stats.len = 0 then None else Some (stat (Stats.to_array w)))
          (Array.to_list ws)))

let hist_mean d name =
  match Metrics.find d name with
  | Some (Metrics.Histogram_v { counts; sum; _ }) ->
      let n = Array.fold_left ( + ) 0 counts in
      if n = 0 then nan else sum /. float_of_int n
  | _ -> nan

(* ---- in-process layer timings (traced run) ---- *)

(* Mean microseconds of [f] over [n] calls, in one span. *)
let per_call_us name ~layer n f =
  Span.call ~layer name (fun () ->
      for i = 1 to n do
        ignore (Sys.opaque_identity (f i))
      done);
  match Span.last name with
  | Some sp -> 1e3 *. Span.ms sp /. float_of_int n
  | None -> nan

let in_process (o : opts) s =
  let hot_req = request (hot_seed o.seed 0) in
  let hot_body = Request.to_body hot_req in
  let hot_wire = fst s.hot.(0) in
  let cold_reqs = Array.init 8 (fun k -> request (cold_seed o.seed (1_000_000 + k))) in
  let parse_us =
    per_call_us "request.parse" ~layer:"server" 2000 (fun _ -> Request.of_body hot_body)
  in
  let cache_key_us =
    per_call_us "request.cache_key" ~layer:"server" 2000 (fun _ -> Request.cache_key hot_req)
  in
  let resolved = Array.map Request.resolve cold_reqs in
  let resolve_ms =
    per_call_us "request.resolve" ~layer:"server" (Array.length cold_reqs) (fun i ->
        Request.resolve cold_reqs.(i - 1))
    /. 1e3
  in
  let digest_us =
    per_call_us "request.digest" ~layer:"server" 200 (fun i ->
        let k = (i - 1) mod Array.length cold_reqs in
        Request.digest cold_reqs.(k) resolved.(k))
  in
  (* The full solve path in process, into a scratch store, twice: the
     solves it leads and the work they do must repeat exactly. *)
  let solve_pass k =
    let dir = Filename.concat o.out_dir (Printf.sprintf "inproc-%d-%d" (Unix.getpid ()) k) in
    Client.rm_rf dir;
    Core.Store.set_shared (Some (Core.Store.open_store dir));
    let srv = Dcn_serve.Server.create Dcn_serve.Server.default_config in
    let name = "solve_resolved " ^ string_of_int k in
    Span.call ~layer:"server" name (fun () ->
        Array.iteri
          (fun i req ->
            let digest = Request.digest req resolved.(i) in
            let sv =
              Dcn_serve.Server.solve_resolved srv ~accept_ns:(now ()) ~digest req
                resolved.(i)
            in
            if sv.Dcn_serve.Server.resp.Dcn_serve.Http.status <> 200 then
              failwith "in-process solve did not answer 200")
          cold_reqs);
    Core.Store.set_shared None;
    Client.rm_rf dir;
    Option.get (Span.last name)
  in
  let p1 = solve_pass 1 and p2 = solve_pass 2 in
  let repeat =
    List.filter_map
      (fun n ->
        if Span.counter p1 n = Span.counter p2 n then None
        else
          Some (Printf.sprintf "in-process solves: %s is %d in one run and %d in another"
                  n (Span.counter p1 n) (Span.counter p2 n)))
      [ "serve.solve.led"; "fptas.phases"; "dijkstra.runs"; "dijkstra.arcs_scanned" ]
  in
  let rs = Dcn_engine.Reqstream.create ~max_body:(1 lsl 20) () in
  let wb = Bytes.of_string hot_wire in
  let reqstream_us =
    per_call_us "reqstream.parse" ~layer:"engine" 5000 (fun _ ->
        Dcn_engine.Reqstream.feed rs wb (Bytes.length wb);
        match Dcn_engine.Reqstream.next rs with
        | Dcn_engine.Reqstream.Request _ -> ()
        | _ -> failwith "reqstream did not yield the recorded request")
  in
  let lru = Dcn_engine.Lru.create ~metrics_prefix:"bench.lru" ~entries:4096 () in
  let keys = Array.init hot_bodies (fun i -> Request.cache_key (request (hot_seed o.seed i))) in
  Array.iteri (fun i k -> Dcn_engine.Lru.insert lru k (snd s.hot.(i))) keys;
  let lru_us =
    per_call_us "lru.find" ~layer:"engine" 20000 (fun i ->
        Dcn_engine.Lru.find lru keys.(i mod hot_bodies))
  in
  let r0 = resolved.(0) in
  let thr =
    Core.Throughput.compute
      ~solver:(Core.Throughput.Fptas (Request.params cold_reqs.(0)))
      r0.Request.topo.Core.Topology.graph r0.Request.commodities
  in
  let enc = Dcn_store.Codec.throughput_to_string thr in
  let encode_us =
    per_call_us "codec.encode" ~layer:"store" 500 (fun _ ->
        Dcn_store.Codec.throughput_to_string thr)
  in
  let decode_us =
    per_call_us "codec.decode" ~layer:"store" 500 (fun _ ->
        Dcn_store.Codec.throughput_of_string enc)
  in
  let sdir = Filename.concat o.out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  Client.rm_rf sdir;
  let st = Core.Store.open_store sdir in
  let skeys = Array.init 200 (fun i -> Core.Digest_key.of_text (string_of_int i)) in
  let add_us = per_call_us "store.add" ~layer:"store" 200 (fun i -> Core.Store.add st skeys.(i - 1) enc) in
  let find_us = per_call_us "store.find" ~layer:"store" 200 (fun i -> Core.Store.find st skeys.(i - 1)) in
  Client.rm_rf sdir;
  let metrics =
    [
      m "request.parse_us" "us" parse_us;
      m "request.cache_key_us" "us" cache_key_us;
      m "request.resolve_ms" "ms" resolve_ms;
      m "request.digest_us" "us" digest_us;
      m "server.solve_resolved_ms" "ms"
        ((Span.ms p1 +. Span.ms p2) /. float_of_int (2 * Array.length cold_reqs));
      m "reqstream.parse_us" "us" reqstream_us;
      m "lru.find_us" "us" lru_us;
      m "codec.encode_us" "us" encode_us;
      m "codec.decode_us" "us" decode_us;
      m "store.add_us" "us" add_us;
      m "store.find_us" "us" find_us;
      m "codec.bytes" "B" (float_of_int (String.length enc));
    ]
  in
  (metrics, repeat)

let run (o : opts) =
  Core.Pool.set_workers (Core.Cli.default_jobs () - 1);
  let times = ref [] and last = ref None and errors = ref [] in
  for k = 1 to setups do
    (match !last with
     | Some prev -> (
         match Client.stop prev.d with
         | None -> Client.rm_rf prev.d.Client.dir
         | Some e -> errors := e :: !errors)
     | None -> ());
    let s, t = timed (fun () -> setup o k) in
    times := t :: !times;
    last := Some s
  done;
  let s = Option.get !last in
  let setup_s = Stats.median (Array.of_list !times) in
  let next_cold = ref 0 in
  let before = metrics_of s.d in
  Client.connects := 0;
  let load = drive ~traced:o.trace s ~seed:o.seed ~seconds:o.seconds ~next_cold in
  Span.enable false;
  let connects = !Client.connects in
  let d = Metrics.diff ~before ~after:(metrics_of s.d) in
  let rss = peak_rss_mb s.d.Client.pid in
  (match Client.stop s.d with Some e -> errors := e :: !errors | None -> ());
  Client.rm_rf s.d.Client.dir;
  let led = Metrics.counter_value d "serve.solve.led" in
  let distinct = List.length (List.sort_uniq compare (List.map fst load.cold)) in
  let hot_checked = Array.to_list (Array.mapi (fun i (_, b) -> (hot_seed o.seed i, b)) s.hot) in
  let check_errs =
    load.errors
    @ verify (hot_checked @ load.cold)
    @ (if led = distinct then []
       else [ Printf.sprintf "serve.solve.led is %d for %d distinct cold bodies" led distinct ])
  in
  let ops = Array.length load.hot_ms + Array.length load.cold_ms in
  let f = float_of_int in
  let metrics, repeat =
    if not o.trace then
        ( [
            m "setup_s" "s" setup_s;
            m "ops_per_s" "1/s" (f ops /. load.elapsed);
            m "p50_ms" "ms" (per_window load (fun w -> Stats.median w));
            (* The 90th, not the 99th, percentile: hot p99 split across
               runs into 0.07 and 0.12 ms with the machine's load. *)
            m "p90_ms" "ms" (per_window load (fun w -> Stats.quantile w 0.9));
            m "cold_p50_ms" "ms" (Stats.median load.cold_ms);
            m "cold_ops_per_s" "1/s" (f (Array.length load.cold_ms) /. load.elapsed);
            m "peak_rss_mb" "MB" rss;
          ],
          [] )
    else begin
        (* Requests completed in the untraced (even) and traced (odd)
           whole seconds. *)
        let per_parity = Array.make 2 0 and windows = Array.make 2 0 in
        let nw = int_of_float load.elapsed in
        Array.iter
          (fun at -> let w = int_of_float at in
            if w < nw then per_parity.(w mod 2) <- per_parity.(w mod 2) + 1)
          load.done_at;
        for w = 0 to nw - 1 do windows.(w mod 2) <- windows.(w mod 2) + 1 done;
        let rate i = f per_parity.(i) /. f (max 1 windows.(i)) in
        Span.enable true;
        let inproc, repeat = in_process o s in
        Span.enable false;
        let hits = Metrics.counter_value d "engine.cache.hits"
        and misses = Metrics.counter_value d "engine.cache.misses" in
        ( inproc
          @ [
              m "serve.solve.led" "count" (f led);
              m "server.request_ms" "ms" (1e3 *. hist_mean d "serve.request_s");
              m "engine.cache.hit_ratio" "ratio" (f hits /. f (max 1 (hits + misses)));
              m "engine.batch.mean_jobs" "count"
                (f (Metrics.counter_value d "engine.batch.jobs")
                 /. f (max 1 (Metrics.counter_value d "engine.batches")));
              m "client.connects" "count" (f connects);
              m "trace.overhead_pct" "%" (100.0 *. (rate 0 -. rate 1) /. rate 0);
            ],
          repeat )
    end
  in
  {
    attempted = load.attempted;
    failed = load.failed;
    errors = List.rev !errors @ check_errs @ repeat;
    metrics;
  }
