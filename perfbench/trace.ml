(* Layer probes for the traced run: domain-safe call counters and an
   in-memory span log.  The benchmark wraps calls into the program's
   public functions with {!timed}; the program itself is not changed.

   Wrappers run on pool domains, so counters are atomics and every
   domain appends spans to its own buffer; buffers are merged when the
   run writes them out.  Parents are published through atomics by the
   caller that owns them: a phase (learn) or a served batch (serve) sets
   {!phase} or {!batch}, and calls made on any domain while it runs
   name it as their parent. *)

let now = Unix.gettimeofday

(* Off until the traced part of a run starts; wrappers then record. *)
let on = Atomic.make false

type counter = { calls : int Atomic.t; ns : int Atomic.t; fails : int Atomic.t }

let counter () = { calls = Atomic.make 0; ns = Atomic.make 0; fails = Atomic.make 0 }
let calls c = Atomic.get c.calls
let seconds c = float_of_int (Atomic.get c.ns) *. 1e-9
let fails c = Atomic.get c.fails

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Current parents; 0 = none. *)
let phase = Atomic.make 0
let batch = Atomic.make 0

let buffers_m = Mutex.create ()
let buffers : span list ref list ref = ref []

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect buffers_m (fun () -> buffers := b :: !buffers);
      b)

let record ~id ~parent name t0 t1 =
  let b = Domain.DLS.get buffer in
  b := { id; parent; name; t0; t1 } :: !b

(* [timed c ~parent name f] runs [f id] (with [id] the span's own id, so
   [f] can publish it as a parent) and, while tracing is on, counts the
   call, its time and any exception in [c] and records one span. *)
let timed c ~parent name f =
  if not (Atomic.get on) then f 0
  else begin
    let id = fresh_id () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      ignore (Atomic.fetch_and_add c.calls 1);
      ignore (Atomic.fetch_and_add c.ns (int_of_float ((t1 -. t0) *. 1e9)));
      record ~id ~parent name t0 t1
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        Atomic.incr c.fails;
        finish ();
        raise e
  end

let spans () =
  Mutex.protect buffers_m (fun () -> List.concat_map (fun b -> !b) !buffers)
  |> List.sort (fun a b -> Int.compare a.id b.id)

(* One JSON object per line, times in microseconds since [origin]. *)
let write ~path ~origin =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.parent s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. origin) *. 1e6))
        (spans ()))
