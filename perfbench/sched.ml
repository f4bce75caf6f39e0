(* Seeded request schedules: which block each request asks for, and when
   it is due.  Everything is a pure function of the seeds, so a run can
   be replayed request for request; only the measured times vary. *)

module Rng = Dt_util.Rng

(* Block popularity: rank r is requested with probability proportional
   to 1/(r+1)^zipf, and rank r names corpus block [perm.(r)]. *)
type traffic = { cdf : float array; perm : int array }

let traffic ~seed ~n_blocks ~zipf =
  if n_blocks < 1 then invalid_arg "Sched.traffic: empty corpus";
  let w = Array.init n_blocks (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let perm = Array.init n_blocks Fun.id in
  Rng.shuffle (Rng.create seed) perm;
  { cdf; perm }

let draw t rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  t.perm.(!lo)

(* [due.(i)] seconds after the window starts, request [i] asks for
   corpus block [block.(i)]. *)
type t = { due : float array; block : int array }

(* Open-loop arrivals at [rate] per second for [duration] seconds, one
   in each 1/[rate] interval at a seeded uniform offset within it: the
   offered rate holds over any window longer than two intervals, so
   what a window measures is the server, not the burstiness of the
   draw.  [arrivals] seeds the offsets, [draws] which block each request
   asks for. *)
let paced t ~arrivals ~draws ~rate ~duration =
  if rate <= 0.0 then invalid_arg "Sched.paced: rate must be positive";
  let at = Rng.create arrivals and pick = Rng.create draws in
  let n = int_of_float (duration *. rate) in
  let due = Array.init n (fun i -> (float_of_int i +. Rng.float at 1.0) /. rate) in
  { due; block = Array.init n (fun _ -> draw t pick) }

(* [n] requests all due at once: a bulk job. *)
let burst t ~draws ~n =
  let rng = Rng.create draws in
  { due = Array.make n 0.0; block = Array.init n (fun _ -> draw t rng) }

(* One schedule of consecutive parts: part [k] is [(s, d)], schedule [s]
   shifted to start when the parts before it, [d] seconds each, end. *)
let concat parts =
  let offset = ref 0.0 in
  let shifted =
    List.map
      (fun ((s : t), d) ->
        let o = !offset in
        offset := o +. d;
        Array.map (fun x -> x +. o) s.due)
      parts
  in
  { due = Array.concat shifted; block = Array.concat (List.map (fun ((s : t), _) -> s.block) parts) }
