(* Spans recorded from outside the program, around each call the
   benchmark makes into a layer's public function.

   A span keeps its name, layer, start and end, the span that was open
   when it began, the minor words the calling domain allocated, and the
   diff of the program's own metrics registry across the call. Spans are
   kept in memory and written out as Chrome trace JSON when the run
   ends. With tracing off, [call] runs its function and records
   nothing. *)

module Metrics = Dcn_obs.Metrics

type t = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  layer : string;
  name : string;
  start_ns : int64;
  end_ns : int64;
  minor_words : float;
  counters : Metrics.snapshot;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let current = ref (-1)
let epoch = Dcn_obs.Clock.now_ns ()

let enable b =
  on := b;
  Metrics.set_enabled b

let ms t = Int64.to_float (Int64.sub t.end_ns t.start_ns) /. 1e6

(* [call ~layer name f] runs [f ()] inside a span. *)
let call ~layer name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let before = Metrics.snapshot () in
    let w0 = Gc.minor_words () in
    let t0 = Dcn_obs.Clock.now_ns () in
    let finish () =
      let t1 = Dcn_obs.Clock.now_ns () in
      let w1 = Gc.minor_words () in
      let diff = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
      current := parent;
      spans :=
        {
          id;
          parent;
          layer;
          name;
          start_ns = t0;
          end_ns = t1;
          minor_words = w1 -. w0;
          counters = diff;
        }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* A span for work timed elsewhere, such as a request the daemon
   served: the interval alone, no counters. *)
let interval ~layer name ~start_ns ~end_ns =
  if !on then begin
    let id = !next_id in
    incr next_id;
    spans :=
      { id; parent = !current; layer; name; start_ns; end_ns; minor_words = 0.0;
        counters = [] }
      :: !spans
  end

let named name = List.filter (fun s -> s.name = name) (List.rev !spans)
let last name = match List.rev (named name) with s :: _ -> Some s | [] -> None

let counter s name = Metrics.counter_value s.counters name

(* Mean milliseconds of the spans called [name]; 0 when there are none. *)
let mean_ms name =
  match named name with
  | [] -> 0.0
  | l -> List.fold_left (fun a s -> a +. ms s) 0.0 l /. float_of_int (List.length l)

(* Chrome trace-event JSON: one complete event per span; the parent id
   and the counter diff ride in args. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      let us t = Int64.to_float (Int64.sub t epoch) /. 1e3 in
      let cs =
        String.concat ", "
          (List.filter_map
             (fun (k, v) ->
               match v with
               | Metrics.Counter_v c -> Some (Printf.sprintf "%S: %d" k c)
               | Metrics.Gauge_v _ | Metrics.Histogram_v _ -> None)
             s.counters)
      in
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"minor_words\": %.0f%s%s}}"
        (if i = 0 then "" else ",\n")
        s.name s.layer (us s.start_ns)
        (us s.end_ns -. us s.start_ns)
        s.id s.parent s.minor_words
        (if cs = "" then "" else ", ")
        cs)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc
