(* The benchmark harness: regenerates every table and figure from the
   paper's evaluation (see the per-experiment index in DESIGN.md), then
   runs Bechamel micro-benchmarks of the substrate simulators and the
   surrogate.

   Usage:
     dune exec bench/main.exe                 # all experiments + perf
     dune exec bench/main.exe table4 fig5     # a subset
     dune exec bench/main.exe perf            # only the micro-benchmarks
     DIFFTUNE_SCALE=full dune exec bench/main.exe   # larger budgets *)

module Experiments = Dt_exp.Experiments
module Scale = Dt_exp.Scale
module Runner = Dt_exp.Runner

(* ---- Bechamel micro-benchmarks ---- *)

module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Model = Dt_surrogate.Model
module Engine = Dt_difftune.Engine

(* Estimated ns/call for each named micro-benchmark.  [?only] restricts
   the run to a subset of names (the regression guard re-measures just
   its guarded keys). *)
let estimates ?only () =
  let open Bechamel in
  let open Toolkit in
  let uarch = Dt_refcpu.Uarch.Haswell in
  let cfg = Dt_refcpu.Uarch.config uarch in
  let params = Dt_mca.Params.default uarch in
  let usim = Dt_usim.Usim.default uarch in
  let block =
    Dt_x86.Block.parse
      "movq 8(%rbp), %rax\n\
       addq %rax, %rcx\n\
       imulq %rcx, %rdx\n\
       movq %rdx, 16(%rbp)\n\
       xorl %r8d, %r8d"
  in
  let rng = Dt_util.Rng.create 1 in
  let model_cfg =
    {
      Dt_surrogate.Model.default_config with
      token_layers = 2;
      instr_layers = 2;
    }
  in
  let model = Dt_surrogate.Model.create ~config:model_cfg rng in
  let per = Array.init 5 (fun _ -> Array.make 15 0.2) in
  let glob = [| 0.6; 1.4 |] in
  let spec = Dt_difftune.Spec.mca_full uarch in
  let staged_sample = spec.sample (Dt_util.Rng.create 7) in
  (* One full training step over a reused workspace: constants + forward
     + MAPE + backward, gradients cleared at the end. *)
  let store = Model.store model in
  let ctx = Ad.new_ctx () in
  let train_step () =
    Ad.reset ctx;
    let params =
      {
        Model.per_instr = Array.map (fun v -> Ad.constant ctx (T.vector v)) per;
        global = Some (Ad.constant ctx (T.vector glob));
      }
    in
    let pred =
      Model.predict model ctx block ~params:(Some params) ~features:None
    in
    let loss = Ad.mape ctx pred ~target:2.0 in
    Ad.backward ctx loss;
    Dt_nn.Nn.Store.zero_grads store
  in
  (* Batched surrogate work at batch 1 / 8 / 32: the same blocks the
     per-sequence rows use, replicated with their constant inputs. *)
  let batch_templates =
    [|
      block;
      Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx";
      Dt_x86.Block.parse "imulq %rcx, %rax\naddq %rdx, %rcx\nxorl %r8d, %r8d";
      Dt_x86.Block.parse "shlq $2, %rax\norq %rbx, %rax";
    |]
  in
  let mk_batch b =
    Array.init b (fun i ->
        let bl = batch_templates.(i mod Array.length batch_templates) in
        {
          Model.bblock = bl;
          bparams =
            Some
              ( Array.init (Dt_x86.Block.length bl) (fun _ ->
                    Array.make 15 0.2),
                Array.copy glob );
          bfeatures = None;
        })
  in
  let batch_ctx = Ad.new_ctx () in
  let train_batch_step samples targets () =
    ignore (Model.train_batch model batch_ctx samples ~targets);
    Dt_nn.Nn.Store.zero_grads store
  in
  let batched_tests =
    List.concat_map
      (fun b ->
        let samples = mk_batch b in
        let targets = Array.make b 2.0 in
        [
          ( Printf.sprintf "surrogate.forward_batch.b%d" b,
            Test.make
              ~name:(Printf.sprintf "surrogate.forward_batch.b%d" b)
              (Staged.stage (fun () -> Model.predict_batch_value model samples))
          );
          ( Printf.sprintf "surrogate.train_batch.b%d" b,
            Test.make
              ~name:(Printf.sprintf "surrogate.train_batch.b%d" b)
              (Staged.stage (train_batch_step samples targets)) );
        ])
      [ 1; 8; 32 ]
  in
  let tests =
    [
      ( "refcpu.timing",
        Test.make ~name:"refcpu.timing"
          (Staged.stage (fun () -> Dt_refcpu.Machine.timing cfg block)) );
      ( "mca.timing",
        Test.make ~name:"mca.timing"
          (Staged.stage (fun () -> Dt_mca.Pipeline.timing params block)) );
      ( "usim.timing",
        Test.make ~name:"usim.timing"
          (Staged.stage (fun () -> Dt_usim.Usim.timing usim block)) );
      ( "iaca.predict",
        Test.make ~name:"iaca.predict"
          (Staged.stage (fun () -> Dt_iaca.Iaca.predict uarch block)) );
      ( "mca.timing_random_table",
        Test.make ~name:"mca.timing_random_table"
          (Staged.stage (fun () -> spec.timing staged_sample block)) );
      ( "surrogate.forward",
        Test.make ~name:"surrogate.forward"
          (Staged.stage (fun () ->
               Dt_surrogate.Model.predict_value model block
                 ~params:(Some (per, glob)) ())) );
      ( "surrogate.forward_backward",
        Test.make ~name:"surrogate.forward_backward" (Staged.stage train_step)
      );
      ( "tokenizer",
        Test.make ~name:"tokenizer"
          (Staged.stage (fun () ->
               Array.map Dt_surrogate.Tokenizer.tokens block.instrs)) );
      ( "block.parse",
        Test.make ~name:"block.parse"
          (Staged.stage (fun () ->
               Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx")) );
    ]
    @ batched_tests
  in
  let tests =
    match only with
    | None -> List.map snd tests
    | Some names -> List.filter_map
        (fun (n, t) -> if List.mem n names then Some t else None)
        tests
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ~kde:(Some 100) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, est) :: acc
          | _ -> acc)
        results [])
    tests

let perf () =
  print_endline "\n=== Performance micro-benchmarks (Bechamel) ===";
  List.iter
    (fun (name, est) -> Printf.printf "%-48s %12.1f ns/call\n%!" name est)
    (estimates ())

(* ---- Domain scaling: samples/sec of collect and surrogate training ---- *)

let with_domains d f =
  let prev = Sys.getenv_opt "DIFFTUNE_DOMAINS" in
  Unix.putenv "DIFFTUNE_DOMAINS" (string_of_int d);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIFFTUNE_DOMAINS"
        (match prev with Some v -> v | None -> ""))
    f

let scaling () =
  let uarch = Dt_refcpu.Uarch.Haswell in
  let spec = Dt_difftune.Spec.mca_full uarch in
  let templates =
    [|
      "addq %rax, %rbx\nmovq 8(%rsp), %rcx";
      "imulq %rcx, %rax\naddq %rdx, %rcx\nxorl %r8d, %r8d";
      "movq 8(%rbp), %rax\naddq %rax, %rcx\nmovq %rcx, 16(%rbp)";
      "shlq $2, %rax\norq %rbx, %rax";
    |]
  in
  let blocks =
    Array.init 64 (fun i ->
        Dt_x86.Block.parse templates.(i mod Array.length templates))
  in
  let cfg =
    { Engine.fast_config with sim_multiplier = 8; surrogate_passes = 0.25 }
  in
  let n_default = Dt_util.Pool.default_domains () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let measure domains =
    with_domains domains (fun () ->
        let data, dt_collect = time (fun () -> Engine.collect cfg spec blocks) in
        let n = Array.length data in
        let model = Engine.make_model cfg spec (Dt_util.Rng.create 11) in
        let steps =
          int_of_float (cfg.Engine.surrogate_passes *. float_of_int n)
        in
        let _, dt_train =
          time (fun () ->
              ignore (Engine.train_surrogate cfg spec model data blocks))
        in
        ( float_of_int n /. dt_collect,
          float_of_int steps /. dt_train ))
  in
  let c1, t1 = measure 1 in
  let base =
    [
      ("domains_default", float_of_int n_default);
      ("collect.samples_per_sec.domains_1", c1);
      ("train.samples_per_sec.domains_1", t1);
    ]
  in
  if n_default = 1 then base
  else
    let cn, tn = measure n_default in
    base
    @ [
        (Printf.sprintf "collect.samples_per_sec.domains_%d" n_default, cn);
        (Printf.sprintf "train.samples_per_sec.domains_%d" n_default, tn);
      ]

(* ---- Sanitizer overhead: surrogate forward+backward, off vs on ---- *)

(* The graph sanitizer (DIFFTUNE_SANITIZE) adds per-op stamp checks,
   shape inference, a poison scan of each output, and a post-backward
   flow audit.  This measures the full train step both ways. *)
let sanitize_overhead () =
  let block =
    Dt_x86.Block.parse
      "movq 8(%rbp), %rax\n\
       addq %rax, %rcx\n\
       imulq %rcx, %rdx\n\
       movq %rdx, 16(%rbp)\n\
       xorl %r8d, %r8d"
  in
  let rng = Dt_util.Rng.create 1 in
  let model_cfg =
    {
      Dt_surrogate.Model.default_config with
      token_layers = 2;
      instr_layers = 2;
    }
  in
  let model = Dt_surrogate.Model.create ~config:model_cfg rng in
  let per = Array.init 5 (fun _ -> Array.make 15 0.2) in
  let glob = [| 0.6; 1.4 |] in
  let store = Model.store model in
  let ctx = Ad.new_ctx () in
  let train_step () =
    Ad.reset ctx;
    let params =
      {
        Model.per_instr = Array.map (fun v -> Ad.constant ctx (T.vector v)) per;
        global = Some (Ad.constant ctx (T.vector glob));
      }
    in
    let pred =
      Model.predict model ctx block ~params:(Some params) ~features:None
    in
    let loss = Ad.mape ctx pred ~target:2.0 in
    Ad.backward ctx loss;
    Dt_nn.Nn.Store.zero_grads store
  in
  let train_step_san sanitize () =
    Ad.set_sanitize sanitize;
    train_step ()
  in
  (* Interleaved off/on rounds with a per-setting minimum: machine-load
     drift between rounds hits both settings equally instead of
     masquerading as sanitizer cost. *)
  let duel_ns step_a step_b =
    for _ = 1 to 20 do
      step_a ();
      step_b ()
    done;
    let rounds = 8 and per = 40 in
    let ta = ref infinity and tb = ref infinity in
    for _ = 1 to rounds do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to per do step_a () done;
      let t1 = Unix.gettimeofday () in
      for _ = 1 to per do step_b () done;
      let t2 = Unix.gettimeofday () in
      ta := Float.min !ta ((t1 -. t0) /. float_of_int per *. 1e9);
      tb := Float.min !tb ((t2 -. t1) /. float_of_int per *. 1e9)
    done;
    (!ta, !tb)
  in
  let off, on = duel_ns (train_step_san false) (train_step_san true) in
  Ad.set_sanitize false;
  [
    ("surrogate.forward_backward_ns.sanitize_off", off);
    ("surrogate.forward_backward_ns.sanitize_on", on);
    ("sanitize.overhead_interp_pct", (on -. off) /. off *. 100.0);
  ]

(* ---- machine-readable perf snapshot for the PR trajectory ---- *)

(* Aggregate per-sample speedups of the batched surrogate path over the
   per-sequence rows: (per-sequence ns) / (batched ns / batch). *)
let batch_speedups ns =
  let get k = List.assoc_opt k ns in
  let speedup ~scalar ~batched ~b out =
    match (get scalar, get batched) with
    | Some s, Some bt when bt > 0.0 -> [ (out, s /. (bt /. float_of_int b)) ]
    | _ -> []
  in
  speedup ~scalar:"surrogate.forward" ~batched:"surrogate.forward_batch.b8"
    ~b:8 "batch.speedup_forward_b8"
  @ speedup ~scalar:"surrogate.forward" ~batched:"surrogate.forward_batch.b32"
      ~b:32 "batch.speedup_forward_b32"
  @ speedup ~scalar:"surrogate.forward_backward"
      ~batched:"surrogate.train_batch.b8" ~b:8 "batch.speedup_train_b8"
  @ speedup ~scalar:"surrogate.forward_backward"
      ~batched:"surrogate.train_batch.b32" ~b:32 "batch.speedup_train_b32"

(* ---- surrogate-lifecycle serving rows (PR 7) ----

   Measures what the lifecycle adds to the serving hot path:
   - shadow-scoring overhead: per-request serving cost with the
     deterministic 1-in-8 shadow sample on vs sampling effectively off,
     on the same lifecycle-managed runtime with warmed caches (the
     reference rides the mca backend's simcache, as in production) —
     bench-guard holds the difference at <= 10%;
   - swap pause: wall time of one full candidate install (registry save
     + validating reload + self-check + epoch swap) on the drain thread;
   - swap shed: failed + overloaded responses while continuous traffic
     crosses a hot-swap — bench-guard requires exactly zero. *)

let lifecycle_rows () =
  let module Lifecycle = Dt_serve.Lifecycle in
  let module Runtime = Dt_serve.Runtime in
  let uarch = Dt_refcpu.Uarch.Haswell in
  (* Realistically shaped Ithemal-style model with all-zero weights:
     full LSTM compute cost, but predictions are exactly 0.0 — finite
     and non-negative, so serving and self-checks never degrade. *)
  let zero_model () =
    let cfg =
      {
        Model.ithemal_config with
        embed_dim = 32;
        token_hidden = 32;
        instr_hidden = 32;
        token_layers = 2;
        instr_layers = 2;
        head_hidden = 0;
      }
    in
    let m = Model.create ~config:cfg (Dt_util.Rng.create 7) in
    let vals =
      List.map
        (fun (n, r, c, a) -> (n, r, c, Array.map (fun _ -> 0.0) a))
        (Dt_nn.Nn.Store.export_values (Model.store m))
    in
    Dt_nn.Nn.Store.import_values (Model.store m) vals;
    m
  in
  let asm_of i =
    let body =
      List.init
        (1 + (i mod 6))
        (fun j ->
          match (i + j) mod 3 with
          | 0 -> "addq %rax, %rbx"
          | 1 -> "imulq %rcx, %rdx"
          | _ -> "movq 8(%rsp), %rsi")
    in
    String.concat "; " body
  in
  let lines tag =
    List.init 64 (fun i -> Printf.sprintf "%s%d predict %s" tag i (asm_of i))
  in
  let run_round rt ls =
    List.iter
      (fun l -> ignore (Runtime.submit rt ~line:l ~respond:(fun _ -> ())))
      ls;
    ignore (Runtime.drain_all rt)
  in
  let with_runtime ~lcfg ~batch f =
    let mca = Dt_serve.Backend.mca uarch in
    let lc =
      Lifecycle.create lcfg
        ~reference:(fun b -> mca.Dt_serve.Backend.predict ~cycle_budget:200_000 b)
        ~retrain:(fun ~init _ -> init)
        ~features:None (zero_model ())
    in
    let pool = Dt_util.Pool.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Dt_util.Pool.shutdown pool) @@ fun () ->
    let rt =
      Runtime.create ~pool ~lifecycle:lc
        { Runtime.default_config with batch; queue_capacity = 128 }
        [ Lifecycle.backend lc; mca; Dt_serve.Backend.bound uarch ]
    in
    Fun.protect ~finally:(fun () -> Runtime.shutdown rt) (fun () -> f rt)
  in
  let serve_ns ~shadow_every =
    let lcfg =
      { Lifecycle.default_config with shadow_every; window = 65536 }
    in
    with_runtime ~lcfg ~batch:16 @@ fun rt ->
    let ls = lines "b" in
    run_round rt ls (* warm: surrogate cache + mca reference simcache *);
    let best = ref infinity in
    for _ = 1 to 8 do
      let t0 = Unix.gettimeofday () in
      run_round rt ls;
      let t1 = Unix.gettimeofday () in
      best := Float.min !best ((t1 -. t0) /. 64.0 *. 1e9)
    done;
    !best
  in
  let off = serve_ns ~shadow_every:1_000_000 in
  let on = serve_ns ~shadow_every:8 in
  (* One full install, timed by the lifecycle itself: force a drift
     window, retrain synchronously (identity: the pause is registry +
     validation + swap, not training) and read back the recorded
     pause. *)
  let swap_pause =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dt_bench_models_%d" (Unix.getpid ()))
    in
    Dt_util.Faultsim.configure "lifecycle.drift_storm@1";
    Fun.protect ~finally:(fun () ->
        Dt_util.Faultsim.clear ();
        if Sys.file_exists dir then begin
          Array.iter
            (fun e -> Sys.remove (Filename.concat dir e))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
    @@ fun () ->
    let lc =
      Lifecycle.create ~model_dir:dir
        {
          Lifecycle.default_config with
          shadow_every = 1;
          window = 4;
          drift_windows = 1;
          canary_windows = 0;
          min_retrain = 1;
          sync_retrain = true;
        }
        ~reference:(fun _ -> 100.0)
        ~retrain:(fun ~init _ -> init)
        ~features:None (zero_model ())
    in
    for _ = 1 to 4 do
      Lifecycle.observe lc ~asm:(asm_of 1) ~value:100.0
    done;
    Lifecycle.tick lc;
    assert (Lifecycle.version lc = 2);
    match List.assoc_opt "swap_pause_ms" (Lifecycle.stats_pairs lc) with
    | Some v -> float_of_string v
    | None -> Float.nan
  in
  (* Continuous traffic across a live hot-swap: a storm forces the
     first 4-score window out of band, the synchronous retrain + swap
     runs at the next batch boundary, and the remaining traffic is
     served by v2 — with zero shed or failed responses throughout. *)
  let swap_shed =
    Dt_util.Faultsim.configure "lifecycle.drift_storm@1";
    Fun.protect ~finally:Dt_util.Faultsim.clear @@ fun () ->
    let lcfg =
      {
        Lifecycle.default_config with
        shadow_every = 1;
        window = 4;
        drift_band = 1e9;
        quantile_band = 1e9;
        drift_windows = 1;
        canary_windows = 0;
        min_retrain = 1;
        sync_retrain = true;
      }
    in
    with_runtime ~lcfg ~batch:4 @@ fun rt ->
    run_round rt (lines "c");
    let stats = Runtime.stats_pairs rt in
    let get k = int_of_string (List.assoc k stats) in
    if get "lifecycle.swaps" < 1 then
      failwith "lifecycle bench: hot-swap did not happen under traffic";
    float_of_int (get "failed" + get "overloaded")
  in
  [
    ("lifecycle.serve_ns.shadow_off", off);
    ("lifecycle.serve_ns.shadow_on", on);
    ("lifecycle.shadow_overhead_pct", (on -. off) /. off *. 100.0);
    ("lifecycle.swap_pause_ms", swap_pause);
    ("lifecycle.swap_shed", swap_shed);
  ]

(* ---- dt_race: dynamic sanitizer overhead on the serving path (PR 8) ----

   Warmed serving cost with DIFFTUNE_RACECHECK toggled: with checking on,
   every runtime/breaker/pool/simcache acquisition pays the held-stack
   bookkeeping (plus order-graph DFS on nested acquisitions) and every
   guarded structure access re-stamps its token.  bench-guard holds the
   overhead at <= 15% of serving throughput. *)

let racecheck_rows () =
  let module Runtime = Dt_serve.Runtime in
  let uarch = Dt_refcpu.Uarch.Haswell in
  let asm_of i =
    let body =
      List.init
        (1 + (i mod 6))
        (fun j ->
          match (i + j) mod 3 with
          | 0 -> "addq %rax, %rbx"
          | 1 -> "imulq %rcx, %rdx"
          | _ -> "movq 8(%rsp), %rsi")
    in
    String.concat "; " body
  in
  let run_round rt ls =
    List.iter
      (fun l -> ignore (Runtime.submit rt ~line:l ~respond:(fun _ -> ())))
      ls;
    ignore (Runtime.drain_all rt)
  in
  let serve_ns ~racecheck =
    let mca = Dt_serve.Backend.mca uarch in
    let pool = Dt_util.Pool.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Dt_util.Pool.shutdown pool) @@ fun () ->
    let rt =
      Runtime.create ~pool
        { Runtime.default_config with batch = 16; queue_capacity = 128 }
        [ mca; Dt_serve.Backend.bound uarch ]
    in
    Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
    Dt_util.Sync.reset_graph ();
    Dt_util.Sync.set_racecheck racecheck;
    Fun.protect
      ~finally:(fun () ->
        Dt_util.Sync.set_racecheck false;
        Dt_util.Sync.reset_graph ())
    @@ fun () ->
    let tag = if racecheck then "rcon" else "rcoff" in
    let ls =
      List.init 64 (fun i -> Printf.sprintf "%s%d predict %s" tag i (asm_of i))
    in
    run_round rt ls (* warm: mca simcache *);
    let best = ref infinity in
    for _ = 1 to 8 do
      let t0 = Unix.gettimeofday () in
      run_round rt ls;
      let t1 = Unix.gettimeofday () in
      best := Float.min !best ((t1 -. t0) /. 64.0 *. 1e9)
    done;
    !best
  in
  let off = serve_ns ~racecheck:false in
  let on = serve_ns ~racecheck:true in
  [
    ("racecheck.serve_ns.off", off);
    ("racecheck.serve_ns.on", on);
    ("racecheck.overhead_pct", (on -. off) /. off *. 100.0);
  ]

let perf_json () =
  let ns = estimates () in
  let sc = scaling () in
  let sa = sanitize_overhead () in
  let sp = batch_speedups ns in
  let lf = lifecycle_rows () in
  let rc = racecheck_rows () in
  let oc = open_out "BENCH_PR8.json" in
  let field (name, v) = Printf.sprintf "    %S: %.1f" name v in
  let field2 (name, v) = Printf.sprintf "    %S: %.2f" name v in
  Printf.fprintf oc
    "{\n  \"pr\": 8,\n  \"ns_per_call\": {\n%s\n  },\n  \"batch\": \
     {\n%s\n  },\n  \"scaling\": {\n%s\n  },\n  \"sanitize\": {\n%s\n  },\n  \
     \"lifecycle\": {\n%s\n  },\n  \"racecheck\": {\n%s\n  }\n}\n"
    (String.concat ",\n" (List.map field ns))
    (String.concat ",\n" (List.map field2 sp))
    (String.concat ",\n" (List.map field sc))
    (String.concat ",\n" (List.map field sa))
    (String.concat ",\n" (List.map field2 lf))
    (String.concat ",\n" (List.map field2 rc));
  close_out oc;
  print_endline "wrote BENCH_PR8.json";
  List.iter
    (fun (n, v) -> Printf.printf "%-48s %12.1f\n%!" n v)
    (ns @ sp @ sc @ sa @ lf @ rc)

(* ---- perf regression guard (make bench-guard) ----

   Re-measures a small set of guarded rows and fails when any of them
   regresses more than [guard_threshold] against the newest committed
   BENCH_PR*.json baseline. *)

(* (key, allowed ratio vs baseline).  Thresholds are sized to each
   row's observed run-to-run spread on the reference machine (a shared,
   noisy box): mca.timing is a long deterministic run and holds within
   a few percent, while the sub-millisecond rows swing 30-40% with
   machine load even after the min-of-three live re-measure below — so
   their gates are wide enough to pass on a loaded box yet still catch
   a real 2x-class regression. *)
let guard_keys =
  [ ("surrogate.forward", 1.5); ("mca.timing", 1.25); ("tokenizer", 1.6) ]

(* Every BENCH_PR<n>.json in the working directory, newest (highest
   n) first.  Snapshots are cumulative per PR but not per key — a PR's
   file records only the rows its harness measures (BENCH_PR9 is the
   fleet load test, BENCH_PR8 the perf rows), so the guard looks each
   key up across every committed baseline, newest first. *)
let baseline_files () =
  Sys.readdir "."
  |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "BENCH_PR%u.json%!" (fun n -> (n, f)))
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.map snd

(* Absolute bounds on derived rows of the committed snapshots.
   (key, `Min|`Max, bound) — checked against the baseline file itself,
   so the committed numbers are what the guard holds the tree to. *)
let guard_absolute =
  [
    (* PR 7 lifecycle bounds: sampled shadow-scoring may cost at most
       10% of warmed serving throughput, and a hot-swap under
       continuous traffic must shed/fail exactly zero requests. *)
    ("lifecycle.shadow_overhead_pct", `Max, 10.0);
    ("lifecycle.swap_shed", `Max, 0.0);
    (* PR 8: the dynamic lock-order/race sanitizer may cost at most 15%
       of warmed serving throughput when armed. *)
    ("racecheck.overhead_pct", `Max, 15.0);
    (* PR 9 fleet load test (2048 concurrent Zipfian clients, one shard
       crash armed): nothing lost or duplicated, shed at most 1% of
       nominal, the crash actually survived (supervisor restart + at
       least one router failover), consistent hashing keeping the
       per-shard caches hot, and tail latency under a generous ceiling
       for a shared box (measured p99 ~1.1s at 2048 in flight). *)
    ("loadtest.lost", `Max, 0.0);
    ("loadtest.duplicates", `Max, 0.0);
    ("loadtest.shed_rate_pct", `Max, 1.0);
    ("loadtest.restarts", `Min, 1.0);
    ("loadtest.failovers", `Min, 1.0);
    ("loadtest.cache_hit_pct", `Min, 50.0);
    ("loadtest.p99_ms", `Max, 3000.0);
    (* PR 10 samples-to-fidelity (make bench-sampling): on the skewed
       bench corpus, complexity-guided collection must reach the same
       fixed MAPE + Kendall-tau targets as uniform with at most 0.6x
       the simulated samples and no more wall-clock.  The counts are
       fully seeded/deterministic, so the ratio is machine independent;
       both strategies must also actually have met the fidelity bar. *)
    ("sampling.samples_ratio", `Max, 0.6);
    ("sampling.wallclock_ratio", `Max, 1.0);
    ("sampling.guided_tau", `Min, 0.85);
    ("sampling.uniform_tau", `Min, 0.85);
    ("sampling.guided_mape", `Max, 0.25);
    ("sampling.uniform_mape", `Max, 0.25);
  ]

(* The first number recorded under [key], searching nested objects in
   document order. *)
let rec json_number key (j : Dt_util.Json.t) =
  match j with
  | Obj kvs ->
      List.find_map
        (fun (k, v) ->
          if String.equal k key then Dt_util.Json.to_num v
          else json_number key v)
        kvs
  | List l -> List.find_map (json_number key) l
  | Null | Bool _ | Num _ | Str _ -> None

let perf_guard () =
  match baseline_files () with
  | [] ->
      prerr_endline
        "bench-guard: no committed BENCH_PR*.json baseline; run `make \
         bench-json` and commit the result";
      exit 1
  | files ->
      let baselines =
        List.map (fun p -> (p, Dt_util.Json.parse_file p)) files
      in
      (* first baseline (newest) that records the key wins *)
      let lookup key =
        List.find_map
          (fun (p, j) -> Option.map (fun v -> (p, v)) (json_number key j))
          baselines
      in
      Printf.printf "bench-guard: baselines %s\n%!" (String.concat ", " files);
      (* Three passes, per-key minimum: a transient load spike during a
         single pass should not fail the gate. *)
      let keys = List.map fst guard_keys in
      let current =
        List.fold_left
          (fun acc _ ->
            let pass = estimates ~only:keys () in
            List.map
              (fun (k, v) ->
                match List.assoc_opt k pass with
                | Some v' -> (k, Float.min v v')
                | None -> (k, v))
              acc
            @ List.filter (fun (k, _) -> not (List.mem_assoc k acc)) pass)
          [] [ 1; 2; 3 ]
      in
      let failures = ref [] in
      List.iter
        (fun (key, threshold) ->
          match (lookup key, List.assoc_opt key current) with
          | Some (path, base), Some now ->
              let ratio = now /. base in
              Printf.printf
                "%-32s baseline %12.1f  now %12.1f  (%+.1f%%, gate +%.0f%%, \
                 %s)\n%!"
                key base now
                ((ratio -. 1.0) *. 100.0)
                ((threshold -. 1.0) *. 100.0)
                path;
              if ratio > threshold then failures := key :: !failures
          | None, _ ->
              Printf.printf "%-32s not in any baseline; skipped\n%!" key
          | _, None -> failures := (key ^ " (not measured)") :: !failures)
        guard_keys;
      List.iter
        (fun (key, dir, bound) ->
          match lookup key with
          | None ->
              (* Older baselines may predate the row; nothing to hold. *)
              Printf.printf "%-40s not in any baseline; skipped\n%!" key
          | Some (_, v) ->
              let ok =
                match dir with `Min -> v >= bound | `Max -> v <= bound
              in
              Printf.printf "%-40s %8.2f  (required %s %.2f)  %s\n%!" key v
                (match dir with `Min -> ">=" | `Max -> "<=")
                bound
                (if ok then "ok" else "FAIL");
              if not ok then failures := (key ^ " (bound)") :: !failures)
        guard_absolute;
      match !failures with
      | [] -> print_endline "bench-guard: ok"
      | fs ->
          Printf.eprintf "bench-guard: failed checks: %s\n%!"
            (String.concat ", " (List.rev fs));
          exit 1

(* ---- Surrogate-depth ablation (design decision in DESIGN.md) ---- *)

let ablation_depth () =
  print_endline "\n=== Ablation: surrogate LSTM stack depth (forward cost) ===";
  let block =
    Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx\nimulq %rcx, %rax"
  in
  let per = Array.init 3 (fun _ -> Array.make 15 0.2) in
  let glob = [| 0.6; 1.4 |] in
  List.iter
    (fun layers ->
      let rng = Dt_util.Rng.create 1 in
      let cfg =
        {
          Dt_surrogate.Model.default_config with
          token_layers = layers;
          instr_layers = layers;
        }
      in
      let model = Dt_surrogate.Model.create ~config:cfg rng in
      let t0 = Unix.gettimeofday () in
      let n = 200 in
      for _ = 1 to n do
        ignore
          (Dt_surrogate.Model.predict_value model block
             ~params:(Some (per, glob)) ())
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6 in
      Printf.printf "%d-stack LSTMs: %4.0f us/forward (params: %d)\n%!" layers
        dt
        (Dt_nn.Nn.Store.size (Dt_surrogate.Model.store model)))
    [ 1; 2; 4 ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale = Scale.from_env () in
  Printf.printf "DiffTune benchmark harness (scale: %s)\n%!" scale.Scale.name;
  let runner = Runner.create scale in
  let known =
    Experiments.all
    @ [ ("perf", fun _ -> perf ());
        ("perf-json", fun _ -> perf_json ());
        ("perf-guard", fun _ -> perf_guard ());
        ("ablation_depth", fun _ -> ablation_depth ()) ]
  in
  let to_run =
    match args with
    | [] -> known
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n known with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n%!" n
                  (String.concat ", " (List.map fst known));
                exit 1)
          names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      Printf.eprintf "[experiment %s]\n%!" name;
      f runner)
    to_run;
  Printf.printf "\nTotal harness time: %.0fs\n%!" (Unix.gettimeofday () -. t0)
