(* A minimal keep-alive HTTP/1.1 client and the daemon's lifecycle,
   written for the benchmark alone: requests are pre-rendered wire
   strings, responses are framed by Content-Length, and readiness is
   polled at millisecond granularity. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
}

let connects = ref 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  incr connects;
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let wire ~meth ~path ?(body = "") () =
  if meth = "GET" then Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path
  else
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
       Content-Length: %d\r\n\r\n%s"
      meth path (String.length body) body

let send c w =
  let b = Bytes.unsafe_of_string w in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read what the socket has; [false] at end of stream. *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  Buffer.add_subbytes c.buf c.chunk 0 n;
  n > 0

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec at i j = j = k || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + k > n then None else if at i 0 then Some i else go (i + 1) in
  go from

(* A complete response at the head of the buffer: status and body,
   consumed from the buffer. *)
let take c =
  let s = Buffer.contents c.buf in
  match find_sub s "\r\n\r\n" 0 with
  | None -> None
  | Some h ->
      let head = String.lowercase_ascii (String.sub s 0 h) in
      let status = int_of_string (String.sub head 9 3) in
      let len =
        match find_sub head "\r\ncontent-length:" 0 with
        | None -> 0
        | Some i ->
            let j = i + String.length "\r\ncontent-length:" in
            let e = Option.value (find_sub head "\r\n" j) ~default:(String.length head) in
            int_of_string (String.trim (String.sub head j (e - j)))
      in
      let total = h + 4 + len in
      if String.length s < total then None
      else begin
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s total (String.length s - total);
        Some (status, String.sub s (h + 4) len)
      end

let rec await c =
  match take c with
  | Some r -> r
  | None -> if fill c then await c else failwith "connection closed mid-response"

let roundtrip c w =
  send c w;
  await c

let get port path =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      roundtrip c (wire ~meth:"GET" ~path ()))

(* ---- the daemon ---- *)

type daemon = { pid : int; port : int; dir : string }

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let live : int list ref = ref []

(* Children still running when the benchmark exits (say, after a failed
   check raised) are killed and reaped, so no daemon outlives a run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Exec the daemon on an ephemeral port with a fresh store under [dir],
   then poll the port file and [GET /healthz] every millisecond until it
   answers 200. *)
let start ~served ~jobs ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let port_file = Filename.concat dir "port" in
  let log = Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process served
      [| served; "--engine"; "epoll"; "--host"; "127.0.0.1"; "--port"; "0";
         "--port-file"; port_file; "--jobs"; string_of_int jobs;
         "--cache-dir"; Filename.concat dir "store" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let t0 = Dcn_obs.Clock.now_ns () in
  let check_alive () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> if Dcn_obs.Clock.elapsed_s t0 > 60.0 then failwith "daemon not ready in 60 s"
    | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith ("daemon exited during start-up; see " ^ dir ^ "/daemon.log")
  in
  let rec port () =
    match In_channel.with_open_text port_file In_channel.input_all with
    | s when String.trim s <> "" -> int_of_string (String.trim s)
    | _ | (exception Sys_error _) ->
        check_alive ();
        Unix.sleepf 0.001;
        port ()
  in
  let port = port () in
  let rec healthy () =
    match get port "/healthz" with
    | 200, _ -> ()
    | _ | (exception Unix.Unix_error _) ->
        check_alive ();
        Unix.sleepf 0.001;
        healthy ()
  in
  healthy ();
  { pid; port; dir }

(* SIGTERM, reap, and report anything but a clean exit 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let t0 = Dcn_obs.Clock.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Dcn_obs.Clock.elapsed_s t0 > 60.0 then begin
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          Some "daemon did not exit within 60 s of SIGTERM"
        end
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
    | _, Unix.WEXITED 0 -> None
    | _, Unix.WEXITED c -> Some (Printf.sprintf "daemon exited with code %d" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Some (Printf.sprintf "daemon killed by signal %d" s)
  in
  let r = wait () in
  live := List.filter (( <> ) d.pid) !live;
  r
