(* Order statistics for the benchmark's reports. *)

(* 1-based nearest rank of the [p]-th percentile among [n] samples; the
   epsilon keeps decimal percentiles such as 99.9 exact. *)
let rank n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an unsorted sample: the smallest value with
   at least [p]% of the sample at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(max 0 (min (n - 1) (rank n p - 1)))

let median xs = percentile xs 50.0

(* Tail percentiles the benchmark may report, highest first. *)
let ladder = [ 99.9; 99.0; 90.0; 50.0 ]

(* Samples strictly above the nearest-rank [p]-th percentile position. *)
let beyond n p = n - rank n p

(* The highest percentile of {!ladder}, at most [upto], with at least
   ten samples beyond it, or [None] when even the median has fewer. *)
let supported_tail ?(upto = 100.0) n =
  List.find_opt (fun p -> p <= upto && beyond n p >= 10) ladder
