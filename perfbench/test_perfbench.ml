(* Unit tests for the benchmark's own code: the tail-percentile rule,
   schedule determinism per seed, and metric-name validity. *)

let check = Alcotest.check

(* ---- percentiles ---- *)

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check (Alcotest.float 0.0) "median" 50.0 (Pct.median xs);
  check (Alcotest.float 0.0) "p99" 99.0 (Pct.percentile xs 99.0);
  check (Alcotest.float 0.0) "p100" 100.0 (Pct.percentile xs 100.0);
  check (Alcotest.float 0.0) "single" 7.0 (Pct.percentile [| 7.0 |] 99.0)

(* The reported tail is the highest percentile with at least ten samples
   beyond it. *)
let test_supported_tail () =
  let tail = Alcotest.(option (float 0.0)) in
  check tail "19 samples: none" None (Pct.supported_tail 19);
  check tail "20 samples: median" (Some 50.0) (Pct.supported_tail 20);
  check tail "99 samples: median" (Some 50.0) (Pct.supported_tail 99);
  check tail "100 samples: p90" (Some 90.0) (Pct.supported_tail 100);
  check tail "999 samples: p90" (Some 90.0) (Pct.supported_tail 999);
  check tail "1000 samples: p99" (Some 99.0) (Pct.supported_tail 1000);
  check tail "10000 samples: p99.9" (Some 99.9) (Pct.supported_tail 10000);
  List.iter
    (fun n ->
      match Pct.supported_tail n with
      | Some p -> Alcotest.(check bool) "ten beyond" true (Pct.beyond n p >= 10)
      | None -> ())
    [ 20; 57; 100; 1234; 10000; 123457 ]

(* Capped at [upto], the rule never reports a percentile above it. *)
let test_supported_tail_upto () =
  let tail = Alcotest.(option (float 0.0)) in
  check tail "10000 samples up to p99: p99" (Some 99.0) (Pct.supported_tail ~upto:99.0 10000);
  check tail "999 samples up to p99: p90" (Some 90.0) (Pct.supported_tail ~upto:99.0 999);
  check tail "10000 samples up to p90: p90" (Some 90.0) (Pct.supported_tail ~upto:90.0 10000)

(* ---- schedules ---- *)

let traffic seed = Sched.traffic ~seed ~n_blocks:4000 ~zipf:1.1

let test_schedule_deterministic () =
  let sched ~arrivals ~draws =
    Sched.paced (traffic 5) ~arrivals ~draws ~rate:2000.0 ~duration:1.0
  in
  let a = sched ~arrivals:7 ~draws:3 and b = sched ~arrivals:7 ~draws:3 in
  Alcotest.(check (array (float 0.0))) "same due times" a.due b.due;
  Alcotest.(check (array int)) "same blocks" a.block b.block;
  let c = sched ~arrivals:8 ~draws:3 in
  Alcotest.(check bool) "another arrival seed moves due times" false (a.due = c.due);
  let n = min (Array.length a.block) (Array.length c.block) in
  Alcotest.(check (array int)) "the draw seed alone picks blocks" (Array.sub a.block 0 n)
    (Array.sub c.block 0 n);
  let d = sched ~arrivals:7 ~draws:4 in
  Alcotest.(check bool) "another draw seed picks other blocks" false (a.block = d.block)

let test_schedule_shape () =
  let s = Sched.paced (traffic 1) ~arrivals:2 ~draws:2 ~rate:5000.0 ~duration:2.0 in
  let n = Array.length s.due in
  Alcotest.(check bool) "about rate x duration" true (n > 9500 && n < 10500);
  let sorted = ref true in
  Array.iteri (fun i d -> if i > 0 && d < s.due.(i - 1) then sorted := false) s.due;
  Alcotest.(check bool) "due times ascend" true !sorted;
  Alcotest.(check bool) "within the window" true (s.due.(n - 1) < 2.0);
  (* Zipf skew: the most popular block is far above the uniform share. *)
  let counts = Hashtbl.create 4000 in
  Array.iter
    (fun b -> Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
    s.block;
  let top = Hashtbl.fold (fun _ c m -> max c m) counts 0 in
  Alcotest.(check bool) "skewed" true (top > 50 * n / 4000);
  let b = Sched.burst (traffic 1) ~draws:2 ~n:100 in
  Alcotest.(check bool) "burst all due at once" true (Array.for_all (( = ) 0.0) b.due)

(* Consecutive parts keep their order and start where the previous
   part's duration ends. *)
let test_schedule_concat () =
  let t = traffic 1 in
  let a = Sched.paced t ~arrivals:1 ~draws:1 ~rate:100.0 ~duration:1.0 in
  let b = Sched.paced t ~arrivals:2 ~draws:2 ~rate:10.0 ~duration:2.0 in
  let c = Sched.concat [ (a, 1.0); (b, 2.0) ] in
  let na = Array.length a.due in
  Alcotest.(check int) "all requests" (na + Array.length b.due) (Array.length c.due);
  Alcotest.(check (array int)) "blocks in order" (Array.append a.block b.block) c.block;
  Alcotest.(check (array (float 1e-12))) "second part shifted" (Array.map (fun x -> x +. 1.0) b.due)
    (Array.sub c.due na (Array.length b.due))

(* ---- metric names ---- *)

let test_name_rules () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Names.valid_name n))
    [ "setup_s"; "p99_ms.busy"; "ad.plan.serve.hit_frac"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Names.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "p99%"; String.make 65 'a' ];
  List.iter (fun u -> Alcotest.(check bool) u true (Names.valid_unit u)) [ "ms"; "1/s"; "%"; "count" ];
  List.iter (fun u -> Alcotest.(check bool) u false (Names.valid_unit u)) [ ""; "m s"; String.make 17 's' ];
  check Alcotest.(list string) "repeat flagged" [ "a: repeated" ] (Names.problems [ "a"; "b"; "a" ])

(* Every metric BENCHMARK.json declares has a valid, unique name and a
   valid unit, and setup_s is among the end-to-end metrics. *)
let test_declared_metrics () =
  let j = Dt_util.Json.parse_file "../BENCHMARK.json" in
  let entries key =
    Option.get (Option.bind (Dt_util.Json.member key j) Dt_util.Json.to_list)
  in
  let str k m = Option.get (Option.bind (Dt_util.Json.member k m) Dt_util.Json.to_str) in
  let all = entries "end_to_end" @ entries "per_layer" in
  check Alcotest.(list string) "no problems" [] (Names.problems (List.map (str "name") all));
  List.iter (fun m -> Alcotest.(check bool) (str "unit" m) true (Names.valid_unit (str "unit" m))) all;
  Alcotest.(check bool) "setup_s declared" true
    (List.exists (fun m -> str "name" m = "setup_s") (entries "end_to_end"))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "supported tail" `Quick test_supported_tail;
          Alcotest.test_case "supported tail up to" `Quick test_supported_tail_upto;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_schedule_deterministic;
          Alcotest.test_case "shape" `Quick test_schedule_shape;
          Alcotest.test_case "concat" `Quick test_schedule_concat;
        ] );
      ( "names",
        [
          Alcotest.test_case "rules" `Quick test_name_rules;
          Alcotest.test_case "declared metrics" `Quick test_declared_metrics;
        ] );
    ]
