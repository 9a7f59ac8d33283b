(* Exact order statistics over samples kept in memory. *)

(* Growable float buffer, so a run keeps every per-operation time. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Quantile with linear interpolation between closest ranks (the
   "inclusive" definition): q = 0 is the minimum, q = 1 the maximum. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan else
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
