(* Tests for the DiffTune core: specs and engine. *)

module Rng = Dt_util.Rng
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Uarch = Dt_refcpu.Uarch
module Ad = Dt_autodiff.Ad
module T = Dt_tensor.Tensor

let spec = Spec.mca_full Uarch.Haswell

let test_spec_shapes () =
  Alcotest.(check int) "per width 15" 15 spec.per_width;
  Alcotest.(check int) "global width 2" 2 spec.global_width;
  Alcotest.(check int) "per bounds" 15 (Array.length spec.per_lower);
  Alcotest.(check int) "uppers" 15 (Array.length spec.per_upper)

let test_sample_within_support () =
  let rng = Rng.create 1 in
  for _ = 1 to 5 do
    let t = spec.sample rng in
    Array.iter
      (fun row ->
        Array.iteri
          (fun j v ->
            Alcotest.(check bool) "within bounds" true
              (v >= spec.per_lower.(j) && v <= spec.per_upper.(j)))
          row)
      t.per;
    Array.iteri
      (fun j v ->
        Alcotest.(check bool) "global within bounds" true
          (v >= spec.global_lower.(j) && v <= spec.global_upper.(j)))
      t.global
  done

let test_round_table_constraints () =
  let t =
    {
      Spec.per = Array.init Dt_x86.Opcode.count (fun _ -> Array.make 15 (-3.7));
      global = [| 0.2; -10.0 |];
    }
  in
  let r = Spec.round_table spec t in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check bool) "lower bound respected" true
            (v >= spec.per_lower.(j));
          Alcotest.(check (float 1e-9)) "integral" (Float.round v) v)
        row)
    r.per;
  Alcotest.(check bool) "global bounded" true (r.global.(0) >= 1.0 && r.global.(1) >= 1.0)

let test_flatten_roundtrip () =
  let rng = Rng.create 2 in
  let t = spec.sample rng in
  let t' = Spec.unflatten spec (Spec.flatten spec t) in
  Alcotest.(check bool) "global" true (t.global = t'.global);
  Alcotest.(check bool) "per" true (t.per = t'.per)

let test_normalize_block () =
  let dflt = Spec.mca_table_of_params (Dt_mca.Params.default Uarch.Haswell) in
  let b = Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx" in
  let per, global = Spec.normalize_block spec dflt b in
  Alcotest.(check int) "one vector per instruction" 2 (Array.length per);
  Alcotest.(check int) "global width" 2 (Array.length global);
  Array.iter
    (fun row ->
      Array.iter
        (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.0))
        row)
    per

let test_params_table_roundtrip () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  let p' = Spec.mca_params_of_table (Spec.mca_table_of_params p) in
  Alcotest.(check int) "dw" p.dispatch_width p'.dispatch_width;
  Alcotest.(check int) "rob" p.reorder_buffer_size p'.reorder_buffer_size;
  Alcotest.(check bool) "wl" true (p.write_latency = p'.write_latency);
  Alcotest.(check bool) "pm" true (p.port_map = p'.port_map)

let test_default_table_timing_matches_params () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  let t = Spec.mca_table_of_params p in
  let b = Dt_x86.Block.parse "pushq %rbx\ntestl %r8d, %r8d" in
  Alcotest.(check (float 1e-9)) "same timing"
    (Dt_mca.Pipeline.timing p b)
    (spec.timing t b)

(* The differentiable bound vector evaluated at a concrete table must
   match a plain-float computation of the same bounds. *)
let test_bounds_match_plain_computation () =
  let dflt = Dt_mca.Params.default Uarch.Haswell in
  let table = Spec.mca_table_of_params dflt in
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rax\npushq %rcx" in
  let per, global = Spec.normalize_block spec table b in
  let ctx = Ad.new_ctx () in
  let per_n = Array.map (fun v -> Ad.constant ctx (T.vector v)) per in
  let global_n = Some (Ad.constant ctx (T.vector global)) in
  let bounds = (Option.get spec.bounds) ctx b ~per:per_n ~global:global_n in
  let v = Ad.value bounds in
  Alcotest.(check int) "three bounds" Spec.n_bounds (T.size v);
  (* Frontend: uops(add)=1, uops(add)=1, uops(push)=2 over width 4 = 1.0 *)
  let opcode n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let uops = float_of_int
      (dflt.num_micro_ops.(opcode "ADD64rr") * 2
       + dflt.num_micro_ops.(opcode "PUSH64r")) in
  Alcotest.(check (float 1e-6)) "frontend bound"
    (uops /. float_of_int dflt.dispatch_width)
    (T.get1 v 0);
  (* Chain: two mutually dependent 1-cycle adds -> 2 cycles/iter. *)
  Alcotest.(check (float 1e-6)) "chain bound" 2.0 (T.get1 v 2)

let test_bounds_gradients_flow_to_theta () =
  (* Gradients must reach a leaf table through the bound graph. *)
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rax" in
  let theta = T.create ~rows:Dt_x86.Opcode.count ~cols:15 0.5 in
  let grad = T.zeros ~rows:Dt_x86.Opcode.count ~cols:15 in
  let leaf = Ad.leaf ~value:theta ~grad in
  let ctx = Ad.new_ctx () in
  let per =
    Array.map
      (fun (i : Dt_x86.Instruction.t) -> Ad.row ctx ~m:leaf i.opcode.index)
      b.instrs
  in
  let global = Some (Ad.constant ctx (T.vector [| 0.6; 1.0 |])) in
  let bounds = (Option.get spec.bounds) ctx b ~per ~global in
  let loss = Ad.mape ctx (Ad.reduce_max ctx bounds) ~target:1.0 in
  Ad.backward ctx loss;
  let total = T.dot grad grad in
  Alcotest.(check bool) "nonzero theta gradient" true (total > 0.0)

let test_wl_spec_shapes () =
  let wl = Spec.mca_write_latency Uarch.Haswell in
  Alcotest.(check int) "per width 1" 1 wl.per_width;
  Alcotest.(check int) "no globals" 0 wl.global_width;
  (* Setting learned WL to the default values reproduces default timing. *)
  let dflt = Dt_mca.Params.default Uarch.Haswell in
  let t =
    {
      Spec.per =
        Array.init Dt_x86.Opcode.count (fun i ->
            [| float_of_int dflt.write_latency.(i) |]);
      global = [||];
    }
  in
  let b = Dt_x86.Block.parse "imulq %rax, %rbx\nimulq %rbx, %rax" in
  Alcotest.(check (float 1e-9)) "matches default"
    (Dt_mca.Pipeline.timing dflt b)
    (wl.timing t b)

let test_usim_spec () =
  let us = Spec.usim_spec Uarch.Haswell in
  Alcotest.(check int) "per width 11" 11 us.per_width;
  let rng = Rng.create 3 in
  let t = us.sample rng in
  let b = Dt_x86.Block.parse "addq %rax, %rbx" in
  Alcotest.(check bool) "positive" true (us.timing t b > 0.0)

let test_search_bounds () =
  let lower, upper = Spec.search_bounds spec in
  Alcotest.(check int) "dim" (2 + (Dt_x86.Opcode.count * 15)) (Array.length lower);
  Alcotest.(check (float 1e-9)) "dw lower" 1.0 lower.(0);
  Alcotest.(check (float 1e-9)) "dw upper" 10.0 upper.(0);
  Alcotest.(check (float 1e-9)) "rob lower" 50.0 lower.(1);
  Alcotest.(check (float 1e-9)) "rob upper" 250.0 upper.(1);
  Alcotest.(check (float 1e-9)) "per upper 5" 5.0 upper.(2)

(* ---- engine smoke tests (tiny budgets) ---- *)

let tiny_train =
  let c = Dt_bhive.Dataset.corpus ~seed:11 ~size:60 in
  let ds = Dt_bhive.Dataset.label c ~seed:2 ~uarch:Uarch.Haswell ~noise:0.0 in
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (Dt_bhive.Dataset.all ds)

let tiny_cfg = { Engine.fast_config with seed = 4; table_passes = 2.0 }

let test_collect () =
  let blocks = Array.map fst tiny_train in
  let data = Engine.collect tiny_cfg (Spec.mca_full Uarch.Haswell) blocks in
  Alcotest.(check bool) "nonempty" true (Array.length data > 0);
  Array.iter
    (fun (s : Engine.sim_sample) ->
      Alcotest.(check bool) "target positive" true (s.target > 0.0);
      Alcotest.(check bool) "block idx valid" true
        (s.block_idx >= 0 && s.block_idx < Array.length blocks);
      Alcotest.(check int) "per width" (Dt_x86.Block.length blocks.(s.block_idx))
        (Array.length s.per))
    data

let test_learn_end_to_end_smoke () =
  let res = Engine.learn tiny_cfg (Spec.mca_full Uarch.Haswell) ~train:tiny_train in
  (* Extracted table must satisfy the constraints. *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check bool) "bounded" true (v >= spec.per_lower.(j));
          Alcotest.(check (float 1e-9)) "integral" (Float.round v) v)
        row)
    res.table.per;
  Alcotest.(check bool) "dw in sampled support" true
    (res.table.global.(0) >= 1.0 && res.table.global.(0) <= 10.0);
  Alcotest.(check bool) "rob in sampled support" true
    (res.table.global.(1) >= 1.0 && res.table.global.(1) <= 250.0);
  (* And the simulator accepts it. *)
  let b = fst tiny_train.(0) in
  Alcotest.(check bool) "timing works" true (spec.timing res.table b > 0.0)

let test_learned_better_than_random_smoke () =
  (* Even a tiny run should beat the random-table average on train. *)
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let cfg =
    {
      tiny_cfg with
      Engine.table_passes = 10.0;
      sim_multiplier = 8;
      surrogate_passes = 2.0;
      token_hidden = 16;
      instr_hidden = 16;
    }
  in
  let res = Engine.learn cfg wl_spec ~train:tiny_train in
  let err table =
    Dt_util.Stats.mean
      (Array.map
         (fun (b, y) -> Float.abs (wl_spec.timing table b -. y) /. y)
         tiny_train)
  in
  let rng = Rng.create 9 in
  let random_err =
    Dt_util.Stats.mean (Array.init 5 (fun _ -> err (wl_spec.sample rng)))
  in
  let learned_err = err res.table in
  Alcotest.(check bool)
    (Printf.sprintf "learned %.2f < mean random %.2f" learned_err random_err)
    true
    (learned_err < random_err)

let test_learn_with_validation_gating () =
  (* Validation-gated extraction returns a constraint-satisfying table
     and never one that is worse on validation than the final iterate
     (here we just exercise the path end to end). *)
  let valid = Array.sub tiny_train 0 20 in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let res = Engine.learn ~valid tiny_cfg wl_spec ~train:tiny_train in
  Array.iter
    (fun (row : float array) ->
      Alcotest.(check bool) "bounded" true (row.(0) >= 0.0))
    res.table.per;
  let err =
    Dt_util.Stats.mean
      (Array.map
         (fun (b, y) -> Float.abs (wl_spec.timing res.table b -. y) /. y)
         valid)
  in
  Alcotest.(check bool) "finite validation error" true (Float.is_finite err)

(* The parallel phases must be bit-identical regardless of how many
   domains execute them: collect uses per-sample RNG streams and the
   training loops (surrogate training and the parameter-table descent)
   use a fixed shard count with an ordered reduction. *)
let with_domains d f =
  let prev = Sys.getenv_opt "DIFFTUNE_DOMAINS" in
  Unix.putenv "DIFFTUNE_DOMAINS" (string_of_int d);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIFFTUNE_DOMAINS"
        (match prev with Some v -> v | None -> ""))
    f

let test_domain_determinism () =
  let blocks = Array.map fst tiny_train in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let cfg =
    { tiny_cfg with Engine.sim_multiplier = 2; surrogate_passes = 0.5 }
  in
  let run domains =
    with_domains domains (fun () ->
        let data = Engine.collect cfg wl_spec blocks in
        let model = Engine.make_model cfg wl_spec (Rng.create 11) in
        let loss = Engine.train_surrogate cfg wl_spec model data blocks in
        (data, loss))
  in
  let d1, l1 = run 1 in
  let d3, l3 = run 3 in
  Alcotest.(check int) "same dataset size" (Array.length d1) (Array.length d3);
  Alcotest.(check bool) "collect bit-identical" true (d1 = d3);
  Alcotest.(check bool)
    (Printf.sprintf "train loss bit-identical (%.17g vs %.17g)" l1 l3)
    true
    (Float.equal l1 l3)

(* Parameter-table descent (theta gradients through the surrogate per
   block) must come out bit for bit the same whatever the domain count.
   The test keeps its older name from when it compared two executors;
   the table phase now has one, and this compares it across
   DIFFTUNE_DOMAINS=1 and 3. *)
let test_table_phase_determinism () =
  let blocks = Array.map fst tiny_train in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let cfg =
    {
      tiny_cfg with
      Engine.seed = 3;
      sim_multiplier = 2;
      surrogate_passes = 0.25;
      table_passes = 4.0;
    }
  in
  let run domains =
    with_domains domains (fun () ->
        let data = Engine.collect cfg wl_spec blocks in
        let model = Engine.make_model cfg wl_spec (Rng.create 5) in
        ignore (Engine.train_surrogate cfg wl_spec model data blocks);
        Engine.optimize_table cfg wl_spec model ~train:tiny_train)
  in
  let t1 = run 1 in
  let t3 = run 3 in
  let check_bits name a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s: %h <> %h (bitwise)" name a b
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> check_bits (Printf.sprintf "per %d.%d" i j) v t3.Spec.per.(i).(j))
        row)
    t1.Spec.per;
  Array.iteri
    (fun j v -> check_bits (Printf.sprintf "global %d" j) v t3.Spec.global.(j))
    t1.Spec.global

let test_ithemal_smoke () =
  let reference = Spec.mca_table_of_params (Dt_mca.Params.default Uarch.Haswell) in
  let features = Some (Engine.spec_features spec ~reference) in
  let model =
    Engine.train_ithemal tiny_cfg ~features ~train:(Array.to_list tiny_train)
  in
  let p = Engine.ithemal_predict ~features model (fst tiny_train.(0)) in
  Alcotest.(check bool) "finite positive" true (Float.is_finite p && p > 0.0)

let () =
  Alcotest.run "difftune"
    [
      ( "spec",
        [
          Alcotest.test_case "shapes" `Quick test_spec_shapes;
          Alcotest.test_case "sample support" `Quick test_sample_within_support;
          Alcotest.test_case "round constraints" `Quick test_round_table_constraints;
          Alcotest.test_case "flatten roundtrip" `Quick test_flatten_roundtrip;
          Alcotest.test_case "normalize block" `Quick test_normalize_block;
          Alcotest.test_case "params/table roundtrip" `Quick
            test_params_table_roundtrip;
          Alcotest.test_case "table timing" `Quick
            test_default_table_timing_matches_params;
          Alcotest.test_case "bounds vs plain" `Quick
            test_bounds_match_plain_computation;
          Alcotest.test_case "bounds gradients" `Quick
            test_bounds_gradients_flow_to_theta;
          Alcotest.test_case "wl spec" `Quick test_wl_spec_shapes;
          Alcotest.test_case "usim spec" `Quick test_usim_spec;
          Alcotest.test_case "search bounds" `Quick test_search_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "collect" `Quick test_collect;
          Alcotest.test_case "domain determinism" `Quick
            test_domain_determinism;
          Alcotest.test_case "table phase compiled = interp" `Quick
            test_table_phase_determinism;
          Alcotest.test_case "learn smoke" `Slow test_learn_end_to_end_smoke;
          Alcotest.test_case "validation gating" `Slow
            test_learn_with_validation_gating;
          Alcotest.test_case "beats random" `Slow
            test_learned_better_than_random_smoke;
          Alcotest.test_case "ithemal smoke" `Slow test_ithemal_smoke;
        ] );
    ]
