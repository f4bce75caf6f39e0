(* Tests for the PR 5 batched compute path: the gemm kernel family
   against naive references (random shapes, strides, betas), the
   bit-compatibility contract between gemm_nt and gemv, batched-LSTM /
   batched-surrogate equivalence with the per-sequence oracle, sanitizer
   coverage for the matmul-class ops, and determinism of batched
   training across domain counts. *)

module T = Dt_tensor.Tensor
module G = Dt_tensor.Gemm
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn
module Rng = Dt_util.Rng
module Faultsim = Dt_util.Faultsim
open Dt_surrogate

let bits = Int64.bits_of_float

let check_bits name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h <> %h (bitwise)" name a b

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* A tensor whose rows live in a wider buffer: rs > cols exercises the
   stride handling of the kernels. *)
let strided_tensor rng ~rows ~cols =
  let pad = 1 + Rng.int rng 3 in
  let wide = T.randn rng ~rows ~cols:(cols + pad) ~sigma:1.0 in
  { wide with T.cols }

let maybe_strided rng ~rows ~cols =
  if Rng.bool rng then T.randn rng ~rows ~cols ~sigma:1.0
  else strided_tensor rng ~rows ~cols

(* ---- gemm family vs naive references ---- *)

let naive_gemm ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.cols - 1 do
            acc := !acc +. (T.get a i l *. T.get b l j)
          done;
          !acc +. (beta *. T.get c0 i j)))

let naive_gemm_tn ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.rows - 1 do
            acc := !acc +. (T.get a l i *. T.get b l j)
          done;
          !acc +. (beta *. T.get c0 i j)))

let naive_gemm_nt ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.cols - 1 do
            acc := !acc +. (T.get a i l *. T.get b j l)
          done;
          !acc +. (beta *. T.get c0 i j)))

let betas = [| 0.0; 1.0; -0.75 |]

let check_against reference kernel name () =
  let rng = Rng.create 11 in
  for trial = 1 to 60 do
    let m = 1 + Rng.int rng 9
    and n = 1 + Rng.int rng 9
    and k = 1 + Rng.int rng 9 in
    let beta = betas.(trial mod Array.length betas) in
    let a, b, c =
      reference ~rng ~m ~n ~k
    in
    let c0 = T.copy c in
    let expect, run = kernel ~a ~b ~c ~c0 ~beta in
    run ();
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j e ->
            if not (close e (T.get c i j)) then
              Alcotest.failf "%s trial %d beta %g at (%d,%d): %g <> %g" name
                trial beta i j e (T.get c i j))
          row)
      (expect ())
  done

let test_gemm_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:m ~cols:k,
        maybe_strided rng ~rows:k ~cols:n,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm ~a ~b ~c0 ~beta),
        fun () -> G.gemm ~a ~b ~c ~beta ))
    "gemm" ()

let test_gemm_tn_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:k ~cols:m,
        maybe_strided rng ~rows:k ~cols:n,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm_tn ~a ~b ~c0 ~beta),
        fun () -> G.gemm_tn ~a ~b ~c ~beta ))
    "gemm_tn" ()

let test_gemm_nt_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:m ~cols:k,
        maybe_strided rng ~rows:n ~cols:k,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm_nt ~a ~b ~c0 ~beta),
        fun () -> G.gemm_nt ~a ~b ~c ~beta ))
    "gemm_nt" ()

let test_gemm_shape_checks () =
  let t rows cols = T.zeros ~rows ~cols in
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "gemm inner" (fun () ->
      G.gemm ~a:(t 2 3) ~b:(t 4 2) ~c:(t 2 2) ~beta:0.0);
  expect_invalid "gemm out" (fun () ->
      G.gemm ~a:(t 2 3) ~b:(t 3 2) ~c:(t 3 2) ~beta:0.0);
  expect_invalid "gemm_tn inner" (fun () ->
      G.gemm_tn ~a:(t 2 3) ~b:(t 3 2) ~c:(t 3 2) ~beta:0.0);
  expect_invalid "gemm_nt inner" (fun () ->
      G.gemm_nt ~a:(t 2 3) ~b:(t 2 4) ~c:(t 2 2) ~beta:0.0)

(* gemm_nt's headline contract: row i of [a b^T] is gemv ~m:b on row i
   of [a], bit for bit, for any shape (both the 4-wide tile and the
   column tail). *)
let test_gemm_nt_gemv_bits () =
  let rng = Rng.create 23 in
  for _ = 1 to 40 do
    let m = 1 + Rng.int rng 6
    and n = 1 + Rng.int rng 9
    and k = 1 + Rng.int rng 20 in
    let a = T.randn rng ~rows:m ~cols:k ~sigma:1.0 in
    let b = T.randn rng ~rows:n ~cols:k ~sigma:1.0 in
    let c = T.zeros ~rows:m ~cols:n in
    G.gemm_nt ~a ~b ~c ~beta:0.0;
    let y = T.zeros ~rows:1 ~cols:n in
    for i = 0 to m - 1 do
      T.gemv ~m:b ~x:(T.row_view a i) ~y ~beta:0.0;
      for j = 0 to n - 1 do
        check_bits (Printf.sprintf "row %d col %d" i j) (T.get1 y j)
          (T.get c i j)
      done
    done
  done

(* ---- batched LSTM vs per-sequence oracle ---- *)

(* Mixed-length sequences in one padded batch: every final state row
   must equal running that sequence alone, bit for bit. *)
let test_lstm_batch_equals_sequential () =
  let rng = Rng.create 7 in
  let store = Nn.Store.create () in
  let lstm = Nn.Lstm.create store rng ~name:"l" ~input:5 ~hidden:6 ~layers:2 in
  let lens = [| 3; 1; 4; 4; 2 |] in
  let batch = Array.length lens in
  let seqs =
    Array.map
      (fun len ->
        Array.init len (fun _ ->
            Array.init 5 (fun _ -> Rng.float_range rng (-1.0) 1.0)))
      lens
  in
  let ctx = Ad.new_ctx () in
  (* Sequential references. *)
  let seq_final =
    Array.map
      (fun seq ->
        Ad.reset ctx;
        let inputs =
          Array.to_list
            (Array.map (fun v -> Ad.constant ctx (T.vector v)) seq)
        in
        T.to_array (Ad.value (Nn.Lstm.forward lstm ctx inputs)))
      seqs
  in
  (* One padded batch. *)
  Ad.reset ctx;
  let maxlen = Array.fold_left max 0 lens in
  let steps =
    List.init maxlen (fun t ->
        let x = T.zeros ~rows:batch ~cols:5 in
        Array.iteri
          (fun r seq ->
            if t < Array.length seq then
              Array.iteri (fun j v -> T.set x r j v) seq.(t))
          seqs;
        let mask =
          if Array.for_all (fun l -> t < l) lens then None
          else Some (Array.map (fun l -> if t < l then 1.0 else 0.0) lens)
        in
        (Ad.constant ctx x, mask))
  in
  let h = Nn.Lstm.forward_batch lstm ctx ~batch steps in
  Array.iteri
    (fun r expect ->
      Array.iteri
        (fun j e ->
          check_bits (Printf.sprintf "seq %d dim %d" r j) e
            (T.get (Ad.value h) r j))
        expect)
    seq_final

(* ---- batched surrogate vs per-sequence oracle ---- *)

let small_cfg =
  {
    Model.default_config with
    embed_dim = 6;
    token_hidden = 8;
    instr_hidden = 8;
    token_layers = 2;
    instr_layers = 2;
    per_instr_params = 3;
    global_params = 2;
  }

let physics_cfg = { small_cfg with feature_width = 2; head_hidden = 4 }

let mk_samples rng cfg n =
  Array.init n (fun _ ->
      let app = Rng.choice rng Dt_bhive.Generator.applications in
      let b = Dt_bhive.Generator.block rng ~app in
      let per =
        Array.map
          (fun _ ->
            Array.init cfg.Model.per_instr_params (fun _ -> Rng.float rng 1.0))
          b.instrs
      in
      let glob = Array.init cfg.Model.global_params (fun _ -> Rng.float rng 1.0) in
      let feats =
        if cfg.Model.feature_width = 0 then None
        else
          Some
            (Array.init cfg.Model.feature_width (fun _ ->
                 0.5 +. Rng.float rng 4.0))
      in
      { Model.bblock = b; bparams = Some (per, glob); bfeatures = feats })

let test_forward_batch_bits cfg name () =
  let rng = Rng.create 31 in
  let model = Model.create ~config:cfg (Rng.split rng) in
  let samples = mk_samples rng cfg 9 in
  let ctx = Ad.new_ctx () in
  Ad.reset ctx;
  let pred = Model.forward_batch model ctx samples in
  Array.iteri
    (fun i (s : Model.batch_sample) ->
      let seq =
        Model.predict_value model s.bblock ~params:s.bparams
          ?features:s.bfeatures ()
      in
      check_bits
        (Printf.sprintf "%s sample %d" name i)
        seq
        (T.get (Ad.value pred) i 0))
    samples

(* The gradient-free batched entry point reuses the model's scratch
   workspace; every repeated call must return, bit for bit, the rows a
   fresh identically-seeded model gives one sequence at a time. *)
let test_predict_batch_bitwise () =
  let mk () = Model.create ~config:physics_cfg (Rng.create 99) in
  let batched = mk () and oracle = mk () in
  let rng = Rng.create 53 in
  let samples = mk_samples rng physics_cfg 8 in
  let expect =
    Array.map
      (fun (s : Model.batch_sample) ->
        Model.predict_value oracle s.bblock ~params:s.bparams
          ?features:s.bfeatures ())
      samples
  in
  for sweep = 1 to 3 do
    Array.iteri
      (fun i v ->
        check_bits (Printf.sprintf "sweep %d row %d" sweep i) expect.(i) v)
      (Model.predict_batch_value batched samples)
  done

let grads_of store =
  let out = ref [] in
  Nn.Store.iter store (fun name ~value:_ ~grad ->
      out := (name, T.to_array grad) :: !out);
  List.rev !out

let test_train_batch_grads () =
  let rng = Rng.create 47 in
  let model = Model.create ~config:small_cfg (Rng.split rng) in
  let store = Model.store model in
  let samples = mk_samples rng small_cfg 7 in
  let targets = Array.map (fun _ -> 1.0 +. Rng.float rng 50.0) samples in
  let ctx = Ad.new_ctx () in
  (* Sequential oracle: per-sample mape + backward, gradients summed. *)
  Nn.Store.zero_grads store;
  let seq_losses =
    Array.mapi
      (fun i (s : Model.batch_sample) ->
        Ad.reset ctx;
        let per, glob = Option.get s.bparams in
        let params =
          Some
            {
              Model.per_instr =
                Array.map (fun v -> Ad.constant ctx (T.vector v)) per;
              global =
                (if Array.length glob = 0 then None
                 else Some (Ad.constant ctx (T.vector glob)));
            }
        in
        let p = Model.predict model ctx s.bblock ~params ~features:None in
        let l = Ad.mape ctx p ~target:targets.(i) in
        Ad.backward ctx l;
        Ad.scalar_value l)
      samples
  in
  let seq_grads = grads_of store in
  (* Batched pass from the same weights. *)
  Nn.Store.zero_grads store;
  let batch_losses = Model.train_batch model ctx samples ~targets in
  let batch_grads = grads_of store in
  Array.iteri
    (fun i l -> check_bits (Printf.sprintf "loss %d" i) seq_losses.(i) l)
    batch_losses;
  List.iter2
    (fun (name, g1) (name2, g2) ->
      Alcotest.(check string) "same param" name name2;
      Array.iteri
        (fun j a ->
          if not (close ~tol:1e-9 a g2.(j)) then
            Alcotest.failf "grad %s[%d]: %.17g <> %.17g" name j a g2.(j))
        g1)
    seq_grads batch_grads;
  Nn.Store.zero_grads store

(* ---- sanitizer coverage for the matmul-class ops ---- *)

let with_sanitize on f =
  Ad.set_sanitize on;
  Fun.protect
    ~finally:(fun () ->
      Ad.set_sanitize false;
      Faultsim.clear ())
    f

let expect_shape name ~contains f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Shape_error" name
  | exception Ad.Shape_error m ->
      List.iter
        (fun frag ->
          let nh = String.length m and nn = String.length frag in
          let rec go i = i + nn <= nh && (String.sub m i nn = frag || go (i + 1)) in
          if not (nn = 0 || go 0) then
            Alcotest.failf "%s: message %S does not mention %S" name m frag)
        contains

let test_matmul_shape_error () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let x = Ad.constant ctx (T.zeros ~rows:2 ~cols:3) in
      let w = Ad.constant ctx (T.zeros ~rows:4 ~cols:5) in
      expect_shape "matmul" ~contains:[ "Ad.matmul"; "2x3"; "4x5" ] (fun () ->
          Ad.matmul ctx ~x ~w);
      let z = Ad.constant ctx (T.zeros ~rows:2 ~cols:8) in
      expect_shape "cols" ~contains:[ "Ad.cols"; "out of range" ] (fun () ->
          Ad.cols ctx z ~pos:6 ~len:4);
      let bias = Ad.constant ctx (T.zeros ~rows:1 ~cols:7) in
      expect_shape "add_row" ~contains:[ "Ad.add_row"; "1x7" ] (fun () ->
          Ad.add_row ctx z ~bias))

(* The ad.gemm_beta fault site flips matmul's gemm_nt from overwrite to
   accumulate into a fresh arena slot — the matrix analogue of the PR 2
   gemv bug; the poison scan must catch it. *)
let seeded_gemm_regression () =
  let ctx = Ad.new_ctx () in
  let build () =
    let x = Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |]) in
    let w = Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 0.; 0.; 1. |]) in
    Ad.matmul ctx ~x ~w
  in
  ignore (build ());
  Ad.reset ctx;
  Faultsim.arm "ad.gemm_beta" ~at:1;
  build ()

let test_gemm_beta_poison () =
  with_sanitize true (fun () ->
      match seeded_gemm_regression () with
      | _ -> Alcotest.fail "expected Uninitialized_read"
      | exception Ad.Uninitialized_read m ->
          let contains needle =
            let nh = String.length m and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
            in
            nn = 0 || go 0
          in
          Alcotest.(check bool) "mentions matmul" true (contains "Ad.matmul");
          Alcotest.(check bool) "mentions poison" true (contains "poison"))

let test_flow_audit_covers_batch () =
  with_sanitize true (fun () ->
      let rng = Rng.create 91 in
      let model = Model.create ~config:small_cfg (Rng.split rng) in
      let samples = mk_samples rng small_cfg 3 in
      let targets = Array.map (fun _ -> 5.0) samples in
      let ctx = Ad.new_ctx () in
      let _ = Model.train_batch model ctx samples ~targets in
      Nn.Store.zero_grads (Model.store model);
      match Ad.last_flow_report ctx with
      | None -> Alcotest.fail "no flow report"
      | Some r ->
          Alcotest.(check int) "no dead nodes" 0 r.Ad.dead;
          Alcotest.(check bool) "tape populated" true (r.Ad.tape_nodes > 0))

(* ---- determinism of batched training across domain counts ----

   The engine shards each minibatch into a fixed number of buckets
   reduced in shard order, so the batched training path must produce
   bit-identical losses and weights whatever DIFFTUNE_DOMAINS says. *)

let with_domains d f =
  let prev = Sys.getenv_opt "DIFFTUNE_DOMAINS" in
  Unix.putenv "DIFFTUNE_DOMAINS" (string_of_int d);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIFFTUNE_DOMAINS"
        (match prev with Some v -> v | None -> ""))
    f

let test_train_domain_determinism () =
  let module Spec = Dt_difftune.Spec in
  let module Engine = Dt_difftune.Engine in
  let uarch = Dt_refcpu.Uarch.Haswell in
  let train =
    let c = Dt_bhive.Dataset.corpus ~seed:7 ~size:30 in
    let ds = Dt_bhive.Dataset.label c ~seed:3 ~uarch ~noise:0.0 in
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      (Dt_bhive.Dataset.all ds)
  in
  let blocks = Array.map fst train in
  let spec = Spec.mca_write_latency uarch in
  let cfg =
    { Engine.fast_config with seed = 9; sim_multiplier = 2;
      surrogate_passes = 0.5 }
  in
  let run domains =
    with_domains domains (fun () ->
        let data = Engine.collect cfg spec blocks in
        let model = Engine.make_model cfg spec (Rng.create 5) in
        let loss = Engine.train_surrogate cfg spec model data blocks in
        (loss, Nn.Store.export_values (Model.store model)))
  in
  let l1, w1 = run 1 in
  let l2, w2 = run 2 in
  let l4, w4 = run 4 in
  check_bits "loss 1=2" l1 l2;
  check_bits "loss 1=4" l1 l4;
  let check_weights label a b =
    List.iter2
      (fun (na, _, _, da) (nb, _, _, db) ->
        if na <> nb then Alcotest.failf "%s: name %s <> %s" label na nb;
        Array.iteri
          (fun i v ->
            if not (Int64.equal (bits v) (bits db.(i))) then
              Alcotest.failf "%s: %s[%d] %h <> %h" label na i v db.(i))
          da)
      a b
  in
  check_weights "weights 1=2" w1 w2;
  check_weights "weights 1=4" w1 w4

let () =
  Alcotest.run "batch"
    [
      ( "gemm",
        [
          Alcotest.test_case "gemm vs naive" `Quick test_gemm_naive;
          Alcotest.test_case "gemm_tn vs naive" `Quick test_gemm_tn_naive;
          Alcotest.test_case "gemm_nt vs naive" `Quick test_gemm_nt_naive;
          Alcotest.test_case "shape checks" `Quick test_gemm_shape_checks;
          Alcotest.test_case "gemm_nt = gemv bitwise" `Quick
            test_gemm_nt_gemv_bits;
        ] );
      ( "lstm",
        [
          Alcotest.test_case "batch = sequential bitwise" `Quick
            test_lstm_batch_equals_sequential;
        ] );
      ( "model",
        [
          Alcotest.test_case "forward_batch = predict bitwise" `Quick
            (test_forward_batch_bits small_cfg "plain");
          Alcotest.test_case "physics head batch bitwise" `Quick
            (test_forward_batch_bits physics_cfg "physics");
          Alcotest.test_case "predict_batch bitwise" `Quick
            test_predict_batch_bitwise;
          Alcotest.test_case "train_batch grads = sequential" `Quick
            test_train_batch_grads;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batched training domain determinism" `Quick
            test_train_domain_determinism;
        ] );
      ( "sanitize",
        [
          Alcotest.test_case "matmul shape errors" `Quick test_matmul_shape_error;
          Alcotest.test_case "gemm beta poison" `Quick test_gemm_beta_poison;
          Alcotest.test_case "flow audit covers batch" `Quick
            test_flow_audit_covers_batch;
        ] );
    ]
