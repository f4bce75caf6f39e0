(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Per-workload settings are in perfbench/workloads.json, the metric
   contract in BENCHMARK.json; both are read from the current directory,
   the repository root.  Settings shared by every workload are below.
   Each run makes its corpora (generation and reference-CPU labelling)
   several times and keeps the median time, trains the served surrogate
   once for serve-surrogate, learns a table for learn-haswell, then
   serves open-loop traffic for about S seconds through the real
   Dt_serve.Server socket loop in this process, followed by a rate
   ladder and bulk jobs.

   With --trace 0 the last stdout line reports every end-to-end metric.
   With --trace 1 the run first repeats its job (the learn, or a bulk of
   requests) untraced, then runs traced: each call into a layer's public
   functions is counted and recorded as a span, and the last line
   reports every per-layer metric.  Outputs are checked on every run;
   any failed check exits 1.  Usage and setup errors exit 2 without a
   result line. *)

module Json = Dt_util.Json
module Pool = Dt_util.Pool
module Engine = Dt_difftune.Engine
module Spec = Dt_difftune.Spec
module Fault = Dt_difftune.Fault
module Simcache = Dt_difftune.Simcache
module Dataset = Dt_bhive.Dataset
module Backend = Dt_serve.Backend
module Runtime = Dt_serve.Runtime
module Lifecycle = Dt_serve.Lifecycle
module Ad = Dt_autodiff.Ad
module Block = Dt_x86.Block

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs = Pct.median (Array.of_list xs)
let ms x = x *. 1000.0
let out_dir = Filename.concat ".bench_build" "perfbench"

let make_out_dir () =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ ".bench_build"; out_dir ]

(* The engine settings of Scale.quick, the paper-shaped CPU scale. *)
let quick_engine = { Dt_exp.Scale.quick.engine with log = ignore }

(* ---- settings ---- *)

(* Settings shared by every workload. *)
let uarch = Dt_refcpu.Uarch.Haswell
let label_seed = 1
let label_noise = Dt_exp.Scale.quick.noise

(* Set-ups of the corpus per run; setup_s takes their median. *)
let setup_repeats = 3

(* One pool domain, against the CLI's default of [nproc], leaves the
   generator and the server loop a core of their own on a 2-vCPU host.
   The queue is far deeper than the CLI's 64: at tens of thousands of
   requests per second a short host stall would otherwise overflow it,
   so overload shows as latency past the limit, not as shedding. *)
let pool_domains = 1
let queue_capacity = 4096

(* Shares of --seconds for the warm-up and the light and busy segments. *)
let warm_share = 0.1
let light_share = 0.4
let busy_share = 0.5

(* The light and busy segments alternate this many times. *)
let rounds = 6

(* A ladder rung lasts at least [rung_min_s] seconds and [rung_requests]
   requests; a bulk job is [bulk_requests] requests with at most
   [bulk_outstanding] unanswered. *)
let rung_min_s = 0.5
let rung_requests = 1500
let bulk_requests = 2000
let bulk_outstanding = 256

(* The CLI's [serve --train-surrogate] trains on the train split of a
   corpus of this many blocks. *)
let cli_surrogate_corpus = 120

(* ---- arguments and workloads ---- *)

type args = { workload : string; seed : int; seconds : int; traced : bool }

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload from perfbench/workloads.json");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S serving time to measure (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !workload = "" then die "--workload is required";
  if !seed < 0 then die "--seed must be given and >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1 }

type workload = {
  name : string;
  corpus_blocks : int;
  corpus_seed : int;
  learn : bool;  (* learn a table, then serve it *)
  zipf : float;
  light_rps : float;
  busy_rps : float;
  ladder_rps : float list;
  p99_limit_ms : float;
  lifecycle : Lifecycle.config option;  (* serve the CLI's surrogate chain *)
}

let load_workload name =
  let j =
    try Json.parse_file (Filename.concat "perfbench" "workloads.json")
    with Sys_error e | Json.Parse_error (e, _) -> die "workloads.json: %s" e
  in
  let wl = match Json.member name j with Some w -> w | None -> die "unknown workload %S" name in
  let field k o = match Json.member k o with Some v -> v | None -> die "workloads.json: missing %s" k in
  let num k o = Json.get_num ~ctx:k (field k o) in
  let int k o = Json.get_int ~ctx:k (field k o) in
  let lifecycle =
    Option.map
      (fun l ->
        {
          Lifecycle.default_config with
          shadow_every = int "shadow_every" l;
          window = int "window" l;
          drift_band = num "drift_band" l;
          quantile = num "quantile" l;
          quantile_band = num "quantile_band" l;
          drift_windows = int "drift_windows" l;
          canary_windows = int "canary_windows" l;
          reservoir_capacity = int "reservoir_capacity" l;
          min_retrain = int "min_retrain" l;
        })
      (Json.member "lifecycle" wl)
  in
  {
    name;
    corpus_blocks = int "corpus_blocks" wl;
    corpus_seed = int "corpus_seed" wl;
    learn = Json.member "learn" wl = Some (Json.Bool true);
    zipf = num "zipf" wl;
    light_rps = num "light_rps" wl;
    busy_rps = num "busy_rps" wl;
    ladder_rps = List.map (Json.get_num ~ctx:"ladder_rps") (Option.get (Json.to_list (field "ladder_rps" wl)));
    p99_limit_ms = num "p99_limit_ms" wl;
    lifecycle;
  }

(* ---- the metric contract ---- *)

(* Declared (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared key =
  let j =
    try Json.parse_file "BENCHMARK.json"
    with Sys_error e | Json.Parse_error (e, _) -> die "BENCHMARK.json: %s" e
  in
  match Option.bind (Json.member key j) Json.to_list with
  | None -> die "BENCHMARK.json: missing %s" key
  | Some l ->
      List.map
        (fun m ->
          let s k = Option.bind (Json.member k m) Json.to_str in
          match (s "name", s "unit") with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: %s entry without name/unit" key)
        l

(* Metrics of this run, in the order they were set. *)
let metrics : (string * float) list ref = ref []

let set name v =
  metrics := (name, v) :: List.remove_assoc name !metrics

(* ---- checks ---- *)

let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt

(* ---- per-layer probes (traced runs only) ---- *)

let counters : (string, Trace.counter) Hashtbl.t = Hashtbl.create 64

(* Counters are created on the main domain before any work starts, so
   pool domains only ever read this table. *)
let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = Trace.counter () in
      Hashtbl.replace counters name c;
      c

let phases = [ "collect"; "train_surrogate"; "optimize_table"; "eval"; "serve" ]

(* Simulator calls of a phase: in optimize_table they come from the
   validation-gated extraction. *)
let sim_scope = function "optimize_table" -> "extract" | p -> p
let current_phase = Atomic.make "setup"

let () =
  List.iter
    (fun p ->
      ignore (counter ("mca.sim." ^ sim_scope p));
      ignore (counter ("surrogate.bounds." ^ p)))
    ("setup" :: phases);
  List.iter
    (fun lane ->
      ignore (counter ("backend." ^ lane));
      ignore (counter ("backend." ^ lane ^ ".batch")))
    [ "surrogate"; "mca"; "bound" ];
  List.iter (fun n -> ignore (counter n)) [ "spec.sample"; "serve.batch"; "lifecycle.reference" ]

let batch_requests = Atomic.make 0

let probe_spec (spec : Spec.t) =
  let sample_c = counter "spec.sample" in
  {
    spec with
    sample =
      (fun rng ->
        Trace.timed sample_c ~parent:(Atomic.get Trace.phase) "spec.sample"
          (fun _ -> spec.sample rng));
    timing =
      (fun table block ->
        let scope = sim_scope (Atomic.get current_phase) in
        Trace.timed (counter ("mca.sim." ^ scope)) ~parent:(Atomic.get Trace.phase)
          "mca.sim"
          (fun _ -> spec.timing table block));
    bounds =
      Option.map
        (fun b ctx block ~per ~global ->
          let p = Atomic.get current_phase in
          Trace.timed (counter ("surrogate.bounds." ^ p)) ~parent:(Atomic.get Trace.phase)
            "surrogate.bounds"
            (fun _ -> b ctx block ~per ~global))
        spec.bounds;
  }

(* Backend wrapper: every scalar and batched call is timed under the
   current served batch.  A lane without a batched entry point gets one
   that returns no values: the runtime calls it once per admitted batch
   (which opens the batch span) and then falls back to its per-request
   path, as it does for any short batched result. *)
let probe_backend (b : Backend.t) =
  let c = counter ("backend." ^ b.name) in
  let cb = counter ("backend." ^ b.name ^ ".batch") in
  let cbatch = counter "serve.batch" in
  let open_batch blocks f =
    Trace.timed cbatch ~parent:0 "serve.batch" (fun id ->
        Atomic.set Trace.batch id;
        ignore (Atomic.fetch_and_add batch_requests (Array.length blocks));
        f id)
  in
  {
    b with
    predict =
      (fun ~cycle_budget block ->
        Trace.timed c ~parent:(Atomic.get Trace.batch) ("backend." ^ b.name)
          (fun _ -> b.predict ~cycle_budget block));
    predict_batch =
      Some
        (match b.predict_batch with
        | Some pb ->
            fun ~cycle_budget blocks ->
              if not (Atomic.get Trace.on) then pb ~cycle_budget blocks
              else
                open_batch blocks (fun id ->
                    Trace.timed cb ~parent:id ("backend." ^ b.name ^ ".batch")
                      (fun _ -> pb ~cycle_budget blocks))
        | None ->
            fun ~cycle_budget:_ blocks ->
              if Atomic.get Trace.on then open_batch blocks (fun _ -> ());
              [||]);
  }

let in_phase name f =
  let c = counter ("phase." ^ name) in
  Trace.timed c ~parent:0 ("phase." ^ name) (fun id ->
      Atomic.set Trace.phase id;
      Atomic.set current_phase name;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set Trace.phase 0;
          Atomic.set current_phase "setup")
        f)

let () = List.iter (fun p -> ignore (counter ("phase." ^ p))) phases

let set_plan_delta scope (a : Ad.plan_stats) (b : Ad.plan_stats) =
  let d k x y = set (Printf.sprintf "ad.plan.%s.%s" scope k) (float_of_int (y - x)) in
  d "hits" a.plan_hits b.plan_hits;
  d "misses" a.plan_misses b.plan_misses;
  d "compiled" a.plans_compiled b.plans_compiled;
  d "evictions" a.plan_evictions b.plan_evictions;
  let hits = b.plan_hits - a.plan_hits in
  let lookups = hits + (b.plan_misses - a.plan_misses) in
  set
    (Printf.sprintf "ad.plan.%s.hit_frac" scope)
    (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups)

let plan_delta scope f =
  let a = Ad.plan_stats () in
  let v = f () in
  set_plan_delta scope a (Ad.plan_stats ());
  v

(* ---- setup ---- *)

type data = {
  ds : Dataset.t;
  blocks : Block.t array;  (* every labelled block: the traffic corpus *)
  labels : float array;
  model : Dt_surrogate.Model.t option;
}

let pairs (ls : Dataset.labeled array) = Array.map (fun (l : Dataset.labeled) -> (l.entry.block, l.timing)) ls

(* Corpus generation and reference-CPU labelling: the workload's traffic
   corpus and, for the surrogate chain, the training corpus of
   [serve --train-surrogate]. *)
let make_corpora w =
  let corpus, corpus_s = time (fun () -> Dataset.corpus ~seed:w.corpus_seed ~size:w.corpus_blocks) in
  let ds, label_s = time (fun () -> Dataset.label corpus ~seed:label_seed ~uarch ~noise:label_noise) in
  let train, train_corpus_s, train_label_s =
    if w.lifecycle = None then ([], 0.0, 0.0)
    else
      let c, cs = time (fun () -> Dataset.corpus ~seed:w.corpus_seed ~size:cli_surrogate_corpus) in
      let d, ls = time (fun () -> Dataset.label c ~seed:1 ~uarch ~noise:0.0) in
      (Array.to_list (pairs d.train), cs, ls)
  in
  (ds, train, corpus_s +. train_corpus_s, label_s +. train_label_s)

(* The corpora are made [setup_repeats] times, each from a compacted
   heap, and their median time counts.  The surrogate is then trained
   once, as the CLI does at start-up. *)
let setup w =
  let runs =
    List.init setup_repeats (fun _ ->
        Gc.compact ();
        make_corpora w)
  in
  Printf.printf "setup: corpora made in%s s\n%!"
    (String.concat "" (List.map (fun (_, _, c, l) -> Printf.sprintf " %.3f" (c +. l)) runs));
  let pick f = median (List.map f runs) in
  let corpus_s = pick (fun (_, _, c, _) -> c) and label_s = pick (fun (_, _, _, l) -> l) in
  let corpora_s = pick (fun (_, _, c, l) -> c +. l) in
  let ds, train, _, _ = List.hd runs in
  let model, train_s =
    time (fun () ->
        if w.lifecycle = None then None
        else Some (Engine.train_ithemal quick_engine ~features:None ~train))
  in
  let all = Dataset.all ds in
  ( {
      ds;
      blocks = Array.map (fun (l : Dataset.labeled) -> l.entry.block) all;
      labels = Array.map (fun (l : Dataset.labeled) -> l.timing) all;
      model;
    },
    corpus_s,
    label_s,
    corpora_s +. train_s )

(* ---- fidelity ---- *)

let fidelity ~predicted ~actual =
  (Dt_eval.Metrics.mape ~predicted ~actual, Dt_eval.Metrics.kendall_tau predicted actual)

let score (spec : Spec.t) table test =
  let predicted = Array.map (fun (b, _) -> spec.timing table b) test in
  fidelity ~predicted ~actual:(Array.map snd test)

let table_digest (t : Spec.table) =
  let b = Buffer.create 4096 in
  Array.iter (Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "%h;" v))) t.per;
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "%h;" v)) t.global;
  Simcache.digest_string (Buffer.contents b)

let check_table (spec : Spec.t) (t : Spec.table) =
  let ok = ref true in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v -> if not (Float.is_finite v && v >= spec.per_lower.(j)) then ok := false)
        row)
    t.per;
  Array.iteri
    (fun j v -> if not (Float.is_finite v && v >= spec.global_lower.(j)) then ok := false)
    t.global;
  check !ok "learned table is finite and respects the spec's lower bounds"

(* Every run of this build must extract the same table: the first run
   in a checkout records the digest, later runs compare against it. *)
let check_digest_across_runs name digest =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat out_dir (Printf.sprintf "%s-%s.digest" name exe) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = input_line ic in
    close_in ic;
    check (prev = digest) "learned-table digest %s equals earlier runs' %s" digest prev
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (digest ^ "\n");
    close_out oc;
    Sys.rename tmp path
  end

(* ---- learn ---- *)

(* Progress lines of the learn loop, for step counts and the collect
   memo-cache summary. *)
let log_lines = ref []
let log_m = Mutex.create ()
let capture line = Mutex.protect log_m (fun () -> log_lines := line :: !log_lines)

let last_total prefix =
  List.fold_left
    (fun acc line ->
      if acc > 0 then acc
      else
        try Scanf.sscanf line (prefix ^^ " %d/%d") (fun _ total -> total)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc)
    0 !log_lines

let collect_cache () =
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None -> (
          try
            Scanf.sscanf line "collect: simulation memo cache %d hits / %d misses"
              (fun h m -> Some (h, m))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None))
    None !log_lines

(* The steps of [Engine.learn], called one phase at a time with the same
   arguments and RNG use, so the extracted table is the same. *)
let learn_phases cfg spec ~train ~valid =
  let health = Fault.create_health () in
  let rng = Dt_util.Rng.create cfg.Engine.seed in
  let blocks = Array.map fst train in
  let model = Engine.make_model cfg spec rng in
  let data = in_phase "collect" (fun () -> Engine.collect ~health cfg spec blocks) in
  ignore
    (plan_delta "train_surrogate" (fun () ->
         in_phase "train_surrogate" (fun () ->
             Engine.train_surrogate ~health cfg spec model data blocks)));
  let table =
    plan_delta "optimize_table" (fun () ->
        in_phase "optimize_table" (fun () ->
            Engine.optimize_table ~valid ~health cfg spec model ~train))
  in
  (table, health)

let learn w ~traced (d : data) =
  let spec = Spec.mca_full uarch in
  let train = pairs d.ds.train and valid = pairs d.ds.valid and test = pairs d.ds.test in
  let result, learn_s = time (fun () -> Engine.learn ~valid quick_engine spec ~train) in
  let table, pspec =
    if not traced then (result.table, spec)
    else begin
      let pspec = probe_spec spec in
      Atomic.set Trace.on true;
      let (table, health), traced_s =
        time (fun () ->
            learn_phases { quick_engine with log = capture } pspec ~train ~valid)
      in
      set "trace.overhead_frac" ((traced_s /. learn_s) -. 1.0);
      set "engine.health.rollbacks" (float_of_int health.rollbacks);
      check
        (table_digest table = table_digest result.table)
        "traced learn extracts the same table as Engine.learn";
      (table, pspec)
    end
  in
  check_table spec table;
  let digest = table_digest table in
  check_digest_across_runs w.name digest;
  let (mape, tau), (dmape, dtau) =
    in_phase "eval" (fun () ->
            let default = Spec.mca_table_of_params (Dt_mca.Params.default uarch) in
            (score pspec table test, score pspec default test))
  in
  Atomic.set Trace.on false;
  check (mape < dmape) "learned MAPE %.4f is below the default table's %.4f" mape dmape;
  Printf.printf "learn: table %s, test MAPE learned %.4f (tau %.4f) vs default %.4f (tau %.4f), %d test blocks\n%!"
    digest mape tau dmape dtau (Array.length test);
  (table, learn_s, mape, tau)

(* ---- serving ---- *)

let asm_of (b : Block.t) =
  String.concat "; " (Array.to_list (Array.map Dt_x86.Instruction.to_string b.instrs))

let stat pairs k =
  match List.assoc_opt k pairs with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> 0.0)
  | None -> 0.0

let socket_path () =
  Filename.concat out_dir (Printf.sprintf "s%d.sock" (Unix.getpid ()))

type served = {
  p50_light : float;
  p99_light : float;
  p50_busy : float;
  p99_busy : float;
  max_rate : float;
  ok_frac : float;
  serve_mape : float;
  bulk_s : float;
  attempted : int;
  failed : int;
}

type kind = Warm | Fixed | Ladder | Bulk

let serve w ~seed ~seconds ~traced (d : data) ~mca_params =
  let cfg = { Runtime.default_config with queue_capacity; seed } in
  let pool = Pool.create ~domains:pool_domains () in
  let mca_raw = Backend.mca ~params:mca_params uarch in
  let wrap b = if traced then probe_backend b else b in
  let lifecycle, backends =
    match (d.model, w.lifecycle) with
    | Some model, Some lcfg ->
        (* The retraining of [serve --train-surrogate]. *)
        let retrain_cfg =
          { quick_engine with surrogate_passes = Float.max 0.5 (quick_engine.surrogate_passes *. 0.5) }
        in
        let retrain ~init data =
          Engine.retrain_ithemal retrain_cfg ~features:None ~init ~train:(Array.to_list data)
        in
        let ref_c = counter "lifecycle.reference" in
        let reference block =
          Trace.timed ref_c ~parent:(Atomic.get Trace.batch) "lifecycle.reference" (fun _ ->
              mca_raw.predict ~cycle_budget:cfg.cycle_budget block)
        in
        let lc = Lifecycle.create { lcfg with seed } ~reference ~retrain ~features:None model in
        (Some lc, [ wrap (Lifecycle.backend lc); wrap mca_raw; wrap (Backend.bound uarch) ])
    | _ -> (None, [ wrap mca_raw; wrap (Backend.bound uarch) ])
  in
  let rt = Runtime.create ~pool ?lifecycle cfg backends in
  let path = socket_path () in
  let server = Domain.spawn (fun () -> Dt_serve.Server.serve_socket rt ~path) in
  let payloads = Array.map (fun b -> "predict " ^ asm_of b) d.blocks in
  let traffic = Sched.traffic ~seed:w.corpus_seed ~n_blocks:(Array.length d.blocks) ~zipf:w.zipf in
  let windows = ref [] in
  let gen = ref None in
  let go kind (sc : Sched.t) ~outstanding =
    let g = Option.get !gen in
    let win =
      Gen.run g ~payload:(Array.map (fun b -> payloads.(b)) sc.block) ~due:sc.due ~outstanding
        ~grace:2.0
    in
    windows := (kind, win, sc) :: !windows;
    win
  in
  (* Schedule [k] of a run draws its blocks from a stream fixed by the
     corpus seed and [k], and its arrival times from the run's seed: runs
     with different seeds differ in timing, not in which rare cold blocks
     a schedule happens to draw. *)
  let schedules = ref 0 in
  let stream base = (base * 1000) + !schedules in
  let paced rate dur =
    let sc =
      Sched.paced traffic ~arrivals:(stream seed) ~draws:(stream w.corpus_seed) ~rate ~duration:dur
    in
    incr schedules;
    sc
  in
  let open_loop kind rate dur = go kind (paced rate dur) ~outstanding:max_int in
  (* The median of three bulk jobs, each a fresh draw. *)
  let bulk () =
    median
      (List.init 3 (fun _ ->
           let sc = Sched.burst traffic ~draws:(stream w.corpus_seed) ~n:bulk_requests in
           incr schedules;
           let t0 = now () in
           ignore (go Bulk sc ~outstanding:bulk_outstanding);
           now () -. t0))
  in
  let limit = w.p99_limit_ms /. 1000.0 in
  (* A rung holds when its p99, with failures counted as misses, meets
     the limit, and the median latency of its last quarter shows no
     backlog grown past the limit. *)
  let rung_ok rate (win : Gen.window) =
    let g = Option.get !gen in
    let lat = Gen.latencies g win in
    let n = Array.length lat in
    let last = Array.sub lat (3 * n / 4) (n - (3 * n / 4)) in
    let p99 = Pct.percentile lat 99.0 and growth = Pct.median last in
    let ok = n > 0 && p99 <= limit && growth <= limit in
    Printf.printf "serve ladder %g req/s: %d requests, p99 %.3f ms, last-quarter p50 %.3f ms: %s\n%!"
      rate n (ms p99) (ms growth) (if ok then "holds" else "fails");
    ok
  in
  let secs = float_of_int seconds in
  let measured =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set Trace.on false;
        (* Stop the server loop: by request, or by its drain signal when
           the connection is gone. *)
        (match !gen with
        | Some g -> ( try Gen.shutdown g with _ -> Unix.kill (Unix.getpid ()) Sys.sigterm)
        | None -> Unix.kill (Unix.getpid ()) Sys.sigterm);
        Domain.join server;
        Runtime.shutdown rt;
        Pool.shutdown pool)
      (fun () ->
        gen := Some (Gen.connect path);
        ignore (open_loop Warm w.light_rps (warm_share *. secs));
        (* The traced run's baseline: the bulk jobs untraced. *)
        let untraced_bulk_s = if traced then bulk () else nan in
        Atomic.set Trace.on traced;
        let t_on = now () in
        let stats0 = Runtime.stats_pairs rt and plan0 = Ad.plan_stats () in
        (* Light and busy alternate in segments of one open loop, so that a
           slow spell of the host falls on both rates alike and no idle gap
           between segments holds back a partial batch. *)
        let segments =
          List.concat
            (List.init rounds (fun _ ->
                 [
                   (true, paced w.light_rps (light_share *. secs /. float_of_int rounds),
                    light_share *. secs /. float_of_int rounds);
                   (false, paced w.busy_rps (busy_share *. secs /. float_of_int rounds),
                    busy_share *. secs /. float_of_int rounds);
                 ]))
        in
        let fixed =
          go Fixed (Sched.concat (List.map (fun (_, sc, d) -> (sc, d)) segments)) ~outstanding:max_int
        in
        (* (is light, first request, requests) of each segment *)
        let spans =
          let at = ref 0 in
          List.map
            (fun (is_light, (sc : Sched.t), _) ->
              let n = Array.length sc.due in
              at := !at + n;
              (is_light, !at - n, n))
            segments
        in
        let stats1 = Runtime.stats_pairs rt in
        (* A failed rung runs up to twice more, so that a transient (a
           host stall, two slow simulations in one batch) does not end
           the climb. *)
        let rung rate =
          rung_ok rate
            (open_loop Ladder rate (Float.max rung_min_s (float_of_int rung_requests /. rate)))
        in
        let rec climb best = function
          | [] -> best
          | rate :: rest -> if rung rate || rung rate || rung rate then climb rate rest else best
        in
        (* The ladder starts above the busy rate; when no rung holds, the
           busy rate is the result. *)
        let max_rate = climb w.busy_rps w.ladder_rps in
        (* Let the last rung's backlog drain before the bulk jobs. *)
        ignore (Gen.run (Option.get !gen) ~payload:[||] ~due:[||] ~outstanding:max_int ~grace:10.0);
        let bulk_s = bulk () in
        let stats2 = Runtime.stats_pairs rt and plan1 = Ad.plan_stats () in
        let wall = now () -. t_on in
        Atomic.set Trace.on false;
        (fixed, spans, max_rate, bulk_s, untraced_bulk_s, stats0, stats1, stats2, plan0, plan1, wall))
  in
  let fixed, spans, max_rate, bulk_s, untraced_bulk_s, stats0, stats1, stats2, plan0, plan1, wall =
    measured
  in
  let g = Option.get !gen in
  let windows = List.rev !windows in
  (* exactly-once, answer validity and mca agreement, over every window *)
  let expected = Hashtbl.create 4096 in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun (kind, (win : Gen.window), (sc : Sched.t)) ->
      Array.iteri
        (fun i id ->
          incr attempted;
          let sl = Gen.slot g id in
          let bad fmt =
            Printf.ksprintf (fun m -> incr failed; check false "request %d: %s" id m) fmt
          in
          if sl.count = 0 then bad "never answered"
          else if sl.count > 1 then bad "answered %d times" sl.count
          else
            match Gen.kind g id with
            | "ok" | "degraded" -> (
                let f = Dt_serve.Protocol.fields sl.line in
                match (List.assoc_opt "cycles" f, List.assoc_opt "backend" f) with
                | Some c, Some backend -> (
                    match float_of_string_opt c with
                    | Some v when Float.is_finite v && v > 0.0 ->
                        if backend = "mca" then begin
                          let b = sc.block.(i) in
                          let e =
                            match Hashtbl.find_opt expected b with
                            | Some e -> e
                            | None ->
                                let e =
                                  Printf.sprintf "%.4f"
                                    (Dt_mca.Pipeline.timing mca_params d.blocks.(b))
                                in
                                Hashtbl.replace expected b e;
                                e
                          in
                          if c <> e then bad "mca answered %s, the simulator gives %s" c e
                        end
                    | _ -> bad "answer %s is not finite and positive" c)
                | _ -> bad "malformed answer %S" sl.line)
            (* Shedding is the service's answer to overload, not a wrong
               output: it counts as a failed operation, except on ladder
               rungs, which go past capacity on purpose. *)
            | "overloaded" -> if kind <> Ladder then incr failed
            | k -> bad "%s reply: %s" k sl.line)
        win.ids)
    windows;
  check (g.strays = 0) "%d replies named no request" g.strays;
  (* Latency from each request's due time over all answers in the
     segments of one rate.  The p99 is reported only when at least ten
     answers lie beyond it. *)
  let latencies = Gen.latencies g fixed in
  let segment_latencies light =
    List.filter_map
      (fun (is_light, first, n) -> if is_light = light then Some (Array.sub latencies first n) else None)
      spans
  in
  let report label light =
    let l =
      Array.of_list
        (List.filter Float.is_finite (Array.to_list (Array.concat (segment_latencies light))))
    in
    let n = Array.length l in
    check
      (Pct.supported_tail ~upto:99.0 n = Some 99.0)
      "%s segments have ten answers beyond their p99 (%d answers)" label n;
    if n = 0 then (nan, nan)
    else begin
      let p50 = Pct.median l and p99 = Pct.percentile l 99.0 in
      Printf.printf "serve %s: %d answered, p50 %.3f ms, p99 %.3f ms%s\n%!" label n (ms p50) (ms p99)
        (match Pct.supported_tail n with
        | Some p when p > 99.0 -> Printf.sprintf ", p%g %.3f ms" p (ms (Pct.percentile l p))
        | _ -> "");
      (p50, p99)
    end
  in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (_, (win : Gen.window), _) ->
      Array.iter
        (fun id ->
          let k = Gen.kind g id in
          Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
        win.ids)
    windows;
  Printf.printf "serve replies:%s\n%!"
    (String.concat ""
       (List.map (fun (k, n) -> Printf.sprintf " %s %d" k n)
          (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []))));
  let segment_p99s light =
    String.concat ""
      (List.map (fun l -> Printf.sprintf " %.1f" (ms (Pct.percentile l 99.0))) (segment_latencies light))
  in
  Printf.printf "serve segment p99s (ms), in order: light%s; busy%s\n%!" (segment_p99s true)
    (segment_p99s false);
  let p50_light, p99_light = report "light" true in
  let p50_busy, p99_busy = report "busy" false in
  let of_kind k = List.filter (fun (k', _, _) -> k' = k) windows in
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun (_, (win : Gen.window), _) ->
      Array.iter (fun id -> incr total; if Gen.answered_ok g id then incr ok) win.ids)
    (of_kind Fixed @ of_kind Bulk);
  let ape = ref [] and late = ref [] in
  List.iter
    (fun (_, (win : Gen.window), (sc : Sched.t)) ->
      Array.iteri
        (fun i id ->
          late := Gen.lateness win i :: !late;
          if Gen.answered_ok g id then
            match List.assoc_opt "cycles" (Dt_serve.Protocol.fields (Gen.slot g id).line) with
            | Some c ->
                let label = d.labels.(sc.block.(i)) in
                ape := (Float.abs (float_of_string c -. label) /. label) :: !ape
            | None -> ())
        win.ids)
    (of_kind Fixed);
  (match lifecycle with
  | Some lc ->
      let l = Lifecycle.stats_pairs lc in
      let g k = Option.value ~default:"-" (List.assoc_opt k l) in
      Printf.printf
        "serve lifecycle: state %s, version %s, %s windows (%s out of band), last window MAPE %s, p%g %s\n%!"
        (g "state") (g "version") (g "windows") (g "windows_out_of_band") (g "last_window_mape")
        (Option.get w.lifecycle).quantile (g "last_window_q")
  | None -> ());
  Printf.printf "serve ladder: highest rate meeting p99 <= %g ms is %g req/s; bulk of %d in %.3f s\n%!"
    w.p99_limit_ms max_rate bulk_requests bulk_s;
  if traced then begin
    set "gen.late_p99_ms" (ms (Pct.percentile (Array.of_list !late) 99.0));
    let delta k = stat stats1 k -. stat stats0 k in
    set "serve.degraded" (delta "degraded");
    set "serve.overloaded" (delta "overloaded");
    set "serve.failed" (delta "failed");
    let hits = delta "mca.cache_hits" and misses = delta "mca.cache_misses" in
    set "backend.mca.cache_hit_frac" (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    let ldelta k = stat stats2 ("lifecycle." ^ k) -. stat stats0 ("lifecycle." ^ k) in
    set "lifecycle.shadow_scored" (ldelta "shadow_scored");
    set "lifecycle.retrains" (ldelta "retrains_started");
    set "lifecycle.swaps" (ldelta "swaps");
    let rc = counter "lifecycle.reference" in
    set "lifecycle.reference.calls" (float_of_int (Trace.calls rc));
    set "lifecycle.reference.s" (Trace.seconds rc);
    set_plan_delta "serve" plan0 plan1;
    if not w.learn then set "trace.overhead_frac" ((bulk_s /. untraced_bulk_s) -. 1.0);
    let busy_s = ref 0.0 in
    List.iter
      (fun lane ->
        let c = counter ("backend." ^ lane) and cb = counter ("backend." ^ lane ^ ".batch") in
        let secs = Trace.seconds c +. Trace.seconds cb in
        busy_s := !busy_s +. secs;
        let served = stat stats2 (lane ^ ".served") -. stat stats0 (lane ^ ".served") in
        set ("backend." ^ lane ^ ".calls") (float_of_int (Trace.calls c));
        set ("backend." ^ lane ^ ".batch_calls") (float_of_int (Trace.calls cb));
        set ("backend." ^ lane ^ ".s") secs;
        set ("backend." ^ lane ^ ".us_per_req") (if served > 0.0 then secs *. 1e6 /. served else 0.0);
        set ("backend." ^ lane ^ ".failures") (float_of_int (Trace.fails c + Trace.fails cb)))
      [ "surrogate"; "mca"; "bound" ];
    let batches = Trace.calls (counter "serve.batch") in
    set "serve.batches" (float_of_int batches);
    set "serve.batch.mean_size"
      (if batches = 0 then 0.0 else float_of_int (Atomic.get batch_requests) /. float_of_int batches);
    set "serve.backend_busy_frac" (!busy_s /. (wall *. float_of_int pool_domains))
  end;
  {
    p50_light;
    p99_light;
    p50_busy;
    p99_busy;
    max_rate;
    ok_frac = float_of_int !ok /. float_of_int (max 1 !total);
    serve_mape = (if !ape = [] then nan else Dt_util.Stats.mean (Array.of_list !ape));
    bulk_s;
    attempted = !attempted;
    failed = !failed;
  }

(* ---- the run ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line -> (
        try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> find ())
    | exception End_of_file -> None
  in
  let v = find () in
  close_in ic;
  match v with Some v -> v | None -> die "no VmHWM in /proc/self/status"

let () =
  let a = parse_args () in
  let w = load_workload a.workload in
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  (match Names.problems (List.map fst (e2e @ layers)) with
  | [] -> ()
  | p -> die "BENCHMARK.json: %s" (String.concat "; " p));
  if a.traced then List.iter (fun (n, _) -> set n 0.0) layers;
  make_out_dir ();
  let origin = now () in
  let d, corpus_s, label_s, setup_s = setup w in
  (* Set-up garbage is not the measured work's to collect. *)
  Gc.compact ();
  Printf.printf "setup: %d blocks (%d train / %d valid / %d test), %.3f s\n%!"
    (Array.length d.blocks) (Array.length d.ds.train) (Array.length d.ds.valid)
    (Array.length d.ds.test) setup_s;
  let table, job_s, mape, tau =
    if w.learn then
      let table, learn_s, mape, tau = learn w ~traced:a.traced d in
      (Some table, learn_s, mape, tau)
    else begin
      let test = pairs d.ds.test in
      let blocks = Array.map fst test in
      let predicted =
        match d.model with
        | Some m -> Engine.ithemal_predict_batch ~features:None m blocks
        | None -> Array.map (Dt_mca.Pipeline.timing (Dt_mca.Params.default uarch)) blocks
      in
      let mape, tau = fidelity ~predicted ~actual:(Array.map snd test) in
      (None, nan, mape, tau)
    end
  in
  Gc.compact ();
  let mca_params =
    match table with
    | Some t -> Spec.mca_params_of_table t
    | None -> Dt_mca.Params.default uarch
  in
  let sv =
    serve w ~seed:a.seed ~seconds:a.seconds ~traced:a.traced d ~mca_params
  in
  let job_s = if w.learn then job_s else sv.bulk_s in
  if a.traced then begin
    set "bhive.corpus.s" corpus_s;
    set "bhive.label.s" label_s;
    let phase p = Trace.seconds (counter ("phase." ^ p)) in
    set "engine.collect.s" (phase "collect");
    set "engine.train_surrogate.s" (phase "train_surrogate");
    set "engine.optimize_table.s" (phase "optimize_table");
    let tsteps = last_total "surrogate step" and osteps = last_total "table step" in
    set "engine.train_surrogate.steps" (float_of_int tsteps);
    set "engine.optimize_table.steps" (float_of_int osteps);
    set "engine.optimize_table.ms_per_step"
      (if osteps = 0 then 0.0 else phase "optimize_table" *. 1000.0 /. float_of_int osteps);
    set "engine.sample.calls" (float_of_int (Trace.calls (counter "spec.sample")));
    (match collect_cache () with
    | Some (h, m) when h + m > 0 ->
        set "simcache.collect.hit_frac" (float_of_int h /. float_of_int (h + m))
    | _ -> ());
    let sims = List.map (fun p -> counter ("mca.sim." ^ p)) [ "collect"; "extract"; "eval" ] in
    let calls = List.fold_left (fun a c -> a + Trace.calls c) 0 sims in
    let secs = List.fold_left (fun a c -> a +. Trace.seconds c) 0.0 sims in
    set "mca.sim.calls" (float_of_int calls);
    set "mca.sim.s" secs;
    set "mca.sim.us_per_call" (if calls = 0 then 0.0 else secs *. 1e6 /. float_of_int calls);
    List.iter
      (fun p ->
        let c = counter ("mca.sim." ^ p) in
        set ("mca.sim." ^ p ^ ".calls") (float_of_int (Trace.calls c));
        set ("mca.sim." ^ p ^ ".s") (Trace.seconds c))
      [ "collect"; "extract"; "eval" ];
    let bcalls = ref 0 and bsecs = ref 0.0 in
    List.iter
      (fun p ->
        let c = counter ("surrogate.bounds." ^ p) in
        bcalls := !bcalls + Trace.calls c;
        bsecs := !bsecs +. Trace.seconds c;
        if p = "train_surrogate" || p = "optimize_table" then
          set ("surrogate.bounds." ^ p ^ ".calls") (float_of_int (Trace.calls c)))
      ("setup" :: phases);
    set "surrogate.bounds.calls" (float_of_int !bcalls);
    set "surrogate.bounds.s" !bsecs;
    let spans = List.length (Trace.spans ()) in
    set "trace.spans" (float_of_int spans);
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" w.name a.seed)
    in
    Trace.write ~path ~origin;
    Printf.printf "trace: %d spans written to %s\n%!" spans path
  end
  else begin
    set "setup_s" setup_s;
    set "peak_rss_mb" (peak_rss_mb ());
    set "job_s" job_s;
    set "mape" mape;
    set "tau" tau;
    set "serve_mape" sv.serve_mape;
    set "p50_ms.light" (ms sv.p50_light);
    set "p99_ms.light" (ms sv.p99_light);
    set "p50_ms.busy" (ms sv.p50_busy);
    set "p99_ms.busy" (ms sv.p99_busy);
    set "max_rate_rps" sv.max_rate;
    set "ok_frac" sv.ok_frac
  end;
  (* the contract: exactly the declared names of this mode, all finite *)
  let want = if a.traced then layers else e2e in
  let got = List.rev !metrics in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n want) then die "metric %s is not declared in BENCHMARK.json" n)
    got;
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n got) then die "declared metric %s was not measured" n)
    want;
  List.iter (fun (n, v) -> check (Float.is_finite v) "metric %s is finite (%g)" n v) got;
  List.iter
    (fun (n, u) -> Printf.printf "  %-40s %.6g %s\n" n (List.assoc n got) u)
    want;
  List.iteri
    (fun i f -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" f)
    (List.rev !failures);
  if List.length !failures > 20 then
    Printf.printf "CHECK FAILED: %d more\n" (List.length !failures - 20);
  let correct = !failures = [] in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int (sv.attempted + if w.learn then 1 else 0)));
        ("failed", Json.Num (float_of_int sv.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, u) ->
                 let v = List.assoc n got in
                 ( n,
                   Json.Obj
                     [ ("value", Json.Num (if Float.is_finite v then v else -1.0)); ("unit", Json.Str u) ] ))
               want) );
      ]
  in
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)
