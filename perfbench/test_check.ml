(* The result checker accepts honest results and rejects corrupted ones:
   an arc's flow above its capacity, λ_lo scaled by 1.2, a fat-tree
   interval shifted off λ*, and a response body with an altered λ. *)

let failures = ref 0

let expect what ~ok errs =
  match (ok, errs) with
  | true, [] | false, _ :: _ -> Printf.printf "ok   %s\n" what
  | true, e :: _ ->
      incr failures;
      Printf.printf "FAIL %s: rejected an honest result (%s)\n" what e
  | false, [] ->
      incr failures;
      Printf.printf "FAIL %s: accepted a corrupted result\n" what

let gap = 0.1
let solver = Core.Throughput.Fptas (Core.Cli.params_of 0.1 gap)

let solve spec =
  let topo =
    match Core.Cli.parse_topo_spec spec with
    | Ok s -> Core.Cli.build_topology s ~seed:3
    | Error e -> failwith e
  in
  let cs =
    Core.Traffic.to_commodities
      (Core.Traffic.permutation (Random.State.make [| 3; 1 |])
         ~servers:topo.Core.Topology.servers)
  in
  let g = topo.Core.Topology.graph in
  (topo, Check.of_graph g cs, Core.Throughput.compute ~solver g cs)

let all c ~lo ~hi ~arc_flow =
  Check.interval ~gap ~lo ~hi @ Check.flow c ~lambda:lo ~arc_flow
  @ Check.within_capacity_bound c ~lo

let () =
  let _, c, t = solve "rrg:20,8,5" in
  let lo, hi = t.Core.Throughput.lambda_bounds in
  let flow = t.Core.Throughput.arc_flow in
  expect "honest rrg solve" ~ok:true (all c ~lo ~hi ~arc_flow:flow);
  let over = Array.copy flow in
  let a = ref 0 in
  while c.Check.acap.(!a) <= 0.0 do incr a done;
  over.(!a) <- c.Check.acap.(!a) *. 1.01;
  expect "arc flow above capacity" ~ok:false (Check.flow c ~lambda:lo ~arc_flow:over);
  expect "lambda_lo scaled by 1.2" ~ok:false (all c ~lo:(lo *. 1.2) ~hi ~arc_flow:flow);
  let topo, c, t = solve "fat-tree:4" in
  let lo, hi = t.Core.Throughput.lambda_bounds in
  let servers = topo.Core.Topology.servers in
  expect "honest fat-tree interval" ~ok:true (Check.fat_tree ~k:4 ~servers c ~lo ~hi);
  let opt = Check.fat_tree_lambda c ~k:4 ~servers in
  expect "fat-tree interval shifted off lambda*" ~ok:false
    (Check.fat_tree ~k:4 ~servers c ~lo:(opt *. 1.01) ~hi:(opt *. 1.05));
  let req =
    match Dcn_serve.Request.of_body {|{"topology": "rrg:16,6,4", "seed": 5, "eps": 0.1, "gap": 0.1}|} with
    | Ok r -> r
    | Error e -> failwith e
  in
  let resolved = Dcn_serve.Request.resolve req in
  let srv = Dcn_serve.Server.create Dcn_serve.Server.default_config in
  let sv =
    Dcn_serve.Server.solve_resolved srv ~accept_ns:(Dcn_obs.Clock.now_ns ())
      ~digest:(Dcn_serve.Request.digest req resolved) req resolved
  in
  let body = sv.Dcn_serve.Server.resp.Dcn_serve.Http.body in
  let t =
    Core.Throughput.compute
      ~solver:(Core.Throughput.Fptas (Dcn_serve.Request.params req))
      resolved.Dcn_serve.Request.topo.Core.Topology.graph
      resolved.Dcn_serve.Request.commodities
  in
  let lo, hi = t.Core.Throughput.lambda_bounds in
  let lambda = t.Core.Throughput.lambda in
  expect "honest response body" ~ok:true (Check.body_matches body ~lambda ~lo ~hi);
  let altered =
    let key = "\"lambda\": " in
    let rec find i = if String.sub body i (String.length key) = key then i else find (i + 1) in
    let j = find 0 + String.length key in
    let e = String.index_from body j ',' in
    String.sub body 0 j
    ^ Printf.sprintf "%.17g" (lambda *. 1.01)
    ^ String.sub body e (String.length body - e)
  in
  expect "response body with an altered lambda" ~ok:false
    (Check.body_matches altered ~lambda ~lo ~hi);
  if !failures > 0 then exit 1
