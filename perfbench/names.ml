(* Metric-name and unit rules of BENCHMARK.json: a name starts with a
   letter or digit and has at most 64 of [A-Za-z0-9_.-]; a unit has at
   most 16 of [A-Za-z0-9_/%.-]. *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let all_chars ok s =
  let r = ref true in
  String.iter (fun c -> if not (ok c) then r := false) s;
  !r

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && all_chars
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* The names in [names] that are invalid or repeated. *)
let problems names =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun n ->
      if not (valid_name n) then Some (n ^ ": invalid name")
      else if Hashtbl.mem seen n then Some (n ^ ": repeated")
      else begin
        Hashtbl.add seen n ();
        None
      end)
    names
