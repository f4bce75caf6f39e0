type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { data : buf; off : int; rs : int; rows : int; cols : int }

let alloc_buf n : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create ~rows ~cols v =
  if rows <= 0 || cols <= 0 then invalid_arg "Tensor.create: bad shape";
  let data = alloc_buf (rows * cols) in
  Bigarray.Array1.fill data v;
  { data; off = 0; rs = cols; rows; cols }

let zeros ~rows ~cols = create ~rows ~cols 0.0

let of_array ~rows ~cols src =
  if Array.length src <> rows * cols then
    invalid_arg "Tensor.of_array: data length does not match shape";
  let t = create ~rows ~cols 0.0 in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set t.data i (Array.unsafe_get src i)
  done;
  t

let vector src = of_array ~rows:1 ~cols:(Array.length src) src

let of_buf data ~off ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Tensor.of_buf: bad shape";
  if off < 0 || off + (rows * cols) > Bigarray.Array1.dim data then
    invalid_arg "Tensor.of_buf: window out of range";
  { data; off; rs = cols; rows; cols }

let scalar v =
  let t = create ~rows:1 ~cols:1 0.0 in
  Bigarray.Array1.unsafe_set t.data 0 v;
  t

let size t = t.rows * t.cols
let same_shape a b = a.rows = b.rows && a.cols = b.cols
let contiguous t = t.rs = t.cols

let get t i j = Bigarray.Array1.get t.data (t.off + (i * t.rs) + j)
let set t i j v = Bigarray.Array1.set t.data (t.off + (i * t.rs) + j) v

let check_flat name t =
  if not (contiguous t) then
    invalid_arg ("Tensor." ^ name ^ ": tensor is not contiguous")

let get1 t k =
  check_flat "get1" t;
  if k < 0 || k >= size t then invalid_arg "Tensor.get1: index out of range";
  Bigarray.Array1.unsafe_get t.data (t.off + k)

let set1 t k v =
  check_flat "set1" t;
  if k < 0 || k >= size t then invalid_arg "Tensor.set1: index out of range";
  Bigarray.Array1.unsafe_set t.data (t.off + k) v

let[@inline always] unsafe_get1 t k = Bigarray.Array1.unsafe_get t.data (t.off + k)
let[@inline always] unsafe_set1 t k v = Bigarray.Array1.unsafe_set t.data (t.off + k) v

let sub t ~pos ~len =
  check_flat "sub" t;
  if pos < 0 || len <= 0 || pos + len > size t then
    invalid_arg "Tensor.sub: out of range";
  { data = t.data; off = t.off + pos; rs = len; rows = 1; cols = len }

let row_view t i =
  if i < 0 || i >= t.rows then invalid_arg "Tensor.row_view: row out of range";
  { data = t.data; off = t.off + (i * t.rs); rs = t.cols; rows = 1; cols = t.cols }

let fill t v =
  if contiguous t then
    if t.off = 0 && size t = Bigarray.Array1.dim t.data then
      Bigarray.Array1.fill t.data v
    else
      for k = 0 to size t - 1 do
        Bigarray.Array1.unsafe_set t.data (t.off + k) v
      done
  else
    for i = 0 to t.rows - 1 do
      let base = t.off + (i * t.rs) in
      for j = 0 to t.cols - 1 do
        Bigarray.Array1.unsafe_set t.data (base + j) v
      done
    done

let zero_ t = fill t 0.0

let blit_sub ~src ~spos ~dst ~dpos ~len =
  check_flat "blit_sub" src;
  check_flat "blit_sub" dst;
  if spos < 0 || len < 0 || spos + len > size src then
    invalid_arg "Tensor.blit_sub: source range";
  if dpos < 0 || dpos + len > size dst then
    invalid_arg "Tensor.blit_sub: destination range";
  let sd = src.data and dd = dst.data in
  let so = src.off + spos and dof = dst.off + dpos in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dd (dof + k) (Bigarray.Array1.unsafe_get sd (so + k))
  done

let blit ~src ~dst =
  if not (same_shape src dst) then invalid_arg "Tensor.blit: shape mismatch";
  blit_sub ~src ~spos:0 ~dst ~dpos:0 ~len:(size src)

let copy t =
  let out = zeros ~rows:t.rows ~cols:t.cols in
  if contiguous t then blit_sub ~src:t ~spos:0 ~dst:out ~dpos:0 ~len:(size t)
  else
    for i = 0 to t.rows - 1 do
      let base = t.off + (i * t.rs) in
      for j = 0 to t.cols - 1 do
        Bigarray.Array1.unsafe_set out.data
          ((i * t.cols) + j)
          (Bigarray.Array1.unsafe_get t.data (base + j))
      done
    done;
  out

let to_array t =
  Array.init (size t) (fun k ->
      Bigarray.Array1.unsafe_get t.data
        (t.off + ((k / t.cols) * t.rs) + (k mod t.cols)))

let randn rng ~rows ~cols ~sigma =
  let t = zeros ~rows ~cols in
  for i = 0 to size t - 1 do
    Bigarray.Array1.unsafe_set t.data i (Dt_util.Rng.gaussian rng ~mu:0.0 ~sigma)
  done;
  t

let check_vec name v n =
  if v.rows <> 1 || v.cols <> n then
    invalid_arg (Printf.sprintf "Tensor.%s: vector shape mismatch" name)

(* The three matrix kernels below are unrolled by hand.  A single
   running sum serializes every iteration on the FP-add latency; four
   independent accumulators per row hide it.  The accumulators are
   non-escaping float refs, which ocamlopt keeps unboxed in registers
   (float function arguments would be boxed at every recursive call). *)

let gemv ~m ~x ~y ~beta =
  check_vec "gemv" x m.cols;
  check_vec "gemv" y m.rows;
  let xd = x.data and yd = y.data and md = m.data in
  let xo = x.off and yo = y.off in
  let cols = m.cols and rows = m.rows in
  (* beta = 0 must overwrite without reading y: the destination may be an
     uninitialized arena slot, and 0 * NaN would poison the result. *)
  let out i acc =
    Bigarray.Array1.unsafe_set yd (yo + i)
      (if beta = 0.0 then acc
       else acc +. (beta *. Bigarray.Array1.unsafe_get yd (yo + i)))
  in
  for i = 0 to rows - 1 do
    let b0 = m.off + (i * m.rs) in
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    let j = ref 0 in
    while !j + 4 <= cols do
      let j0 = !j in
      s0 :=
        !s0
        +. (Bigarray.Array1.unsafe_get md (b0 + j0)
            *. Bigarray.Array1.unsafe_get xd (xo + j0));
      s1 :=
        !s1
        +. (Bigarray.Array1.unsafe_get md (b0 + j0 + 1)
            *. Bigarray.Array1.unsafe_get xd (xo + j0 + 1));
      s2 :=
        !s2
        +. (Bigarray.Array1.unsafe_get md (b0 + j0 + 2)
            *. Bigarray.Array1.unsafe_get xd (xo + j0 + 2));
      s3 :=
        !s3
        +. (Bigarray.Array1.unsafe_get md (b0 + j0 + 3)
            *. Bigarray.Array1.unsafe_get xd (xo + j0 + 3));
      j := j0 + 4
    done;
    while !j < cols do
      s0 :=
        !s0
        +. (Bigarray.Array1.unsafe_get md (b0 + !j)
            *. Bigarray.Array1.unsafe_get xd (xo + !j));
      incr j
    done;
    out i ((!s0 +. !s1) +. (!s2 +. !s3))
  done

let gemv_t ~m ~x ~y ~beta =
  check_vec "gemv_t" x m.rows;
  check_vec "gemv_t" y m.cols;
  let xd = x.data and yd = y.data and md = m.data in
  let xo = x.off and yo = y.off in
  let cols = m.cols and rows = m.rows in
  if beta = 0.0 then
    for j = 0 to cols - 1 do
      Bigarray.Array1.unsafe_set yd (yo + j) 0.0
    done
  else if beta <> 1.0 then
    for j = 0 to cols - 1 do
      Bigarray.Array1.unsafe_set yd (yo + j)
        (beta *. Bigarray.Array1.unsafe_get yd (yo + j))
    done;
  (* Four rows per pass: one y load/store amortized over four
     multiply-adds, summed as a tree so the additions are independent. *)
  let i = ref 0 in
  while !i + 4 <= rows do
    let i0 = !i in
    let b0 = m.off + (i0 * m.rs) in
    let b1 = b0 + m.rs and b2 = b0 + (2 * m.rs) and b3 = b0 + (3 * m.rs) in
    let x0 = Bigarray.Array1.unsafe_get xd (xo + i0)
    and x1 = Bigarray.Array1.unsafe_get xd (xo + i0 + 1)
    and x2 = Bigarray.Array1.unsafe_get xd (xo + i0 + 2)
    and x3 = Bigarray.Array1.unsafe_get xd (xo + i0 + 3) in
    if x0 <> 0.0 || x1 <> 0.0 || x2 <> 0.0 || x3 <> 0.0 then
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set yd (yo + j)
          (Bigarray.Array1.unsafe_get yd (yo + j)
          +. ((x0 *. Bigarray.Array1.unsafe_get md (b0 + j))
              +. (x1 *. Bigarray.Array1.unsafe_get md (b1 + j))
             +. ((x2 *. Bigarray.Array1.unsafe_get md (b2 + j))
                +. (x3 *. Bigarray.Array1.unsafe_get md (b3 + j)))))
      done;
    i := i0 + 4
  done;
  while !i < rows do
    let base = m.off + (!i * m.rs) in
    let xi = Bigarray.Array1.unsafe_get xd (xo + !i) in
    if xi <> 0.0 then
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set yd (yo + j)
          (Bigarray.Array1.unsafe_get yd (yo + j)
          +. (xi *. Bigarray.Array1.unsafe_get md (base + j)))
      done;
    incr i
  done

let ger ~m ~x ~y =
  check_vec "ger" x m.rows;
  check_vec "ger" y m.cols;
  let xd = x.data and yd = y.data and md = m.data in
  let xo = x.off and yo = y.off in
  let cols = m.cols and rows = m.rows in
  (* Two rows per pass so each y load feeds two multiply-adds. *)
  let i = ref 0 in
  while !i + 2 <= rows do
    let i0 = !i in
    let b0 = m.off + (i0 * m.rs) in
    let b1 = b0 + m.rs in
    let x0 = Bigarray.Array1.unsafe_get xd (xo + i0)
    and x1 = Bigarray.Array1.unsafe_get xd (xo + i0 + 1) in
    if x0 <> 0.0 || x1 <> 0.0 then
      for j = 0 to cols - 1 do
        let yj = Bigarray.Array1.unsafe_get yd (yo + j) in
        Bigarray.Array1.unsafe_set md (b0 + j)
          (Bigarray.Array1.unsafe_get md (b0 + j) +. (x0 *. yj));
        Bigarray.Array1.unsafe_set md (b1 + j)
          (Bigarray.Array1.unsafe_get md (b1 + j) +. (x1 *. yj))
      done;
    i := i0 + 2
  done;
  if !i < rows then begin
    let base = m.off + (!i * m.rs) in
    let xi = Bigarray.Array1.unsafe_get xd (xo + !i) in
    if xi <> 0.0 then
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set md (base + j)
          (Bigarray.Array1.unsafe_get md (base + j)
          +. (xi *. Bigarray.Array1.unsafe_get yd (yo + j)))
      done
  end

(* Executes the update sequence [ger ~m ~x:xs.(t) ~y:ys.(t)] for
   t = 0 .. len-1 in ONE pass over [m].  Per element the accumulations
   happen in exactly the same order (t ascending) with exactly the same
   pairwise zero-skip as the call sequence, so the result is bitwise
   identical — but each row of [m] is loaded and stored once instead of
   once per call, which is what makes a deferred, batched reverse pass
   over an LSTM's weight gradients cheap. *)
let ger_seq ~m ~xs ~ys =
  let tlen = Array.length xs in
  if Array.length ys <> tlen then invalid_arg "Tensor.ger_seq: rank mismatch";
  if tlen > 0 then begin
    Array.iter (fun x -> check_vec "ger_seq" x m.rows) xs;
    Array.iter (fun y -> check_vec "ger_seq" y m.cols) ys;
    let md = m.data in
    let cols = m.cols and rows = m.rows in
    (* The row pair accumulates in an unboxed scratch: the inner j loop
       has the same shape as [ger]'s, but the matrix row is loaded and
       stored once per pair instead of once per update. *)
    let a0 = Array.make cols 0.0 and a1 = Array.make cols 0.0 in
    let i = ref 0 in
    while !i + 2 <= rows do
      let i0 = !i in
      let b0 = m.off + (i0 * m.rs) in
      let b1 = b0 + m.rs in
      for j = 0 to cols - 1 do
        Array.unsafe_set a0 j (Bigarray.Array1.unsafe_get md (b0 + j));
        Array.unsafe_set a1 j (Bigarray.Array1.unsafe_get md (b1 + j))
      done;
      for t = 0 to tlen - 1 do
        let x = Array.unsafe_get xs t and y = Array.unsafe_get ys t in
        let x0 = Bigarray.Array1.unsafe_get x.data (x.off + i0)
        and x1 = Bigarray.Array1.unsafe_get x.data (x.off + i0 + 1) in
        if x0 <> 0.0 || x1 <> 0.0 then begin
          let yd = y.data and yo = y.off in
          for j = 0 to cols - 1 do
            let yj = Bigarray.Array1.unsafe_get yd (yo + j) in
            Array.unsafe_set a0 j (Array.unsafe_get a0 j +. (x0 *. yj));
            Array.unsafe_set a1 j (Array.unsafe_get a1 j +. (x1 *. yj))
          done
        end
      done;
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set md (b0 + j) (Array.unsafe_get a0 j);
        Bigarray.Array1.unsafe_set md (b1 + j) (Array.unsafe_get a1 j)
      done;
      i := i0 + 2
    done;
    if !i < rows then begin
      let base = m.off + (!i * m.rs) in
      for j = 0 to cols - 1 do
        Array.unsafe_set a0 j (Bigarray.Array1.unsafe_get md (base + j))
      done;
      for t = 0 to tlen - 1 do
        let x = Array.unsafe_get xs t and y = Array.unsafe_get ys t in
        let xi = Bigarray.Array1.unsafe_get x.data (x.off + !i) in
        if xi <> 0.0 then begin
          let yd = y.data and yo = y.off in
          for j = 0 to cols - 1 do
            Array.unsafe_set a0 j
              (Array.unsafe_get a0 j
              +. (xi *. Bigarray.Array1.unsafe_get yd (yo + j)))
          done
        end
      done;
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set md (base + j) (Array.unsafe_get a0 j)
      done
    end
  end

let axpy ~alpha ~x ~y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  let xd = x.data and yd = y.data in
  let xo = x.off and yo = y.off in
  for k = 0 to size x - 1 do
    Bigarray.Array1.unsafe_set yd (yo + k)
      (Bigarray.Array1.unsafe_get yd (yo + k)
      +. (alpha *. Bigarray.Array1.unsafe_get xd (xo + k)))
  done

let axpy_at ~alpha ~x ~y ~ypos =
  check_flat "axpy_at" x;
  check_flat "axpy_at" y;
  let len = size x in
  if ypos < 0 || ypos + len > size y then invalid_arg "Tensor.axpy_at: range";
  let xd = x.data and yd = y.data in
  let xo = x.off and yo = y.off + ypos in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set yd (yo + k)
      (Bigarray.Array1.unsafe_get yd (yo + k)
      +. (alpha *. Bigarray.Array1.unsafe_get xd (xo + k)))
  done

let axpy_from ~alpha ~x ~xpos ~len ~y =
  check_flat "axpy_from" x;
  check_flat "axpy_from" y;
  if xpos < 0 || len < 0 || xpos + len > size x then
    invalid_arg "Tensor.axpy_from: source range";
  if len > size y then invalid_arg "Tensor.axpy_from: destination range";
  let xd = x.data and yd = y.data in
  let xo = x.off + xpos and yo = y.off in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set yd (yo + k)
      (Bigarray.Array1.unsafe_get yd (yo + k)
      +. (alpha *. Bigarray.Array1.unsafe_get xd (xo + k)))
  done

(* add_/mul_ are hot (LSTM gate arithmetic): monomorphic loops, no
   per-element closure call. *)
let check_binop name a b dst =
  if not (same_shape a b && same_shape a dst) then
    invalid_arg ("Tensor." ^ name ^ ": shape mismatch")

let add_ ~dst ~a ~b =
  check_binop "add_" a b dst;
  let ad = a.data and bd = b.data and dd = dst.data in
  let ao = a.off and bo = b.off and dd_o = dst.off in
  for k = 0 to size a - 1 do
    Bigarray.Array1.unsafe_set dd (dd_o + k)
      (Bigarray.Array1.unsafe_get ad (ao + k)
      +. Bigarray.Array1.unsafe_get bd (bo + k))
  done

let mul_ ~dst ~a ~b =
  check_binop "mul_" a b dst;
  let ad = a.data and bd = b.data and dd = dst.data in
  let ao = a.off and bo = b.off and dd_o = dst.off in
  for k = 0 to size a - 1 do
    Bigarray.Array1.unsafe_set dd (dd_o + k)
      (Bigarray.Array1.unsafe_get ad (ao + k)
      *. Bigarray.Array1.unsafe_get bd (bo + k))
  done

let scale_ t alpha =
  let d = t.data and o = t.off in
  for k = 0 to size t - 1 do
    Bigarray.Array1.unsafe_set d (o + k)
      (Bigarray.Array1.unsafe_get d (o + k) *. alpha)
  done

let dot a b =
  if not (same_shape a b) then invalid_arg "Tensor.dot: shape mismatch";
  let ad = a.data and bd = b.data in
  let ao = a.off and bo = b.off in
  let acc = ref 0.0 in
  for k = 0 to size a - 1 do
    acc :=
      !acc
      +. (Bigarray.Array1.unsafe_get ad (ao + k)
          *. Bigarray.Array1.unsafe_get bd (bo + k))
  done;
  !acc

let map f t =
  let out = zeros ~rows:t.rows ~cols:t.cols in
  for k = 0 to size t - 1 do
    Bigarray.Array1.unsafe_set out.data k
      (f (Bigarray.Array1.unsafe_get t.data (t.off + k)))
  done;
  out

let map_ f t =
  let d = t.data and o = t.off in
  for k = 0 to size t - 1 do
    Bigarray.Array1.unsafe_set d (o + k) (f (Bigarray.Array1.unsafe_get d (o + k)))
  done

let sum t =
  let d = t.data and o = t.off in
  let acc = ref 0.0 in
  for k = 0 to size t - 1 do
    acc := !acc +. Bigarray.Array1.unsafe_get d (o + k)
  done;
  !acc

(* ---- debug poison (sanitize mode support) ----

   A quiet NaN with a recognizable payload.  The autodiff arena fills
   recycled memory with this value on reset; any kernel that reads an
   uninitialized slot (the gemv beta-accumulate class) propagates the
   payload into its output, where the sanitizer's post-op scan catches
   it.  The bit-exact payload check keeps the detector from firing on
   NaNs produced by legitimate arithmetic (e.g. injected fault NaNs or
   divergent training), whose payloads differ. *)

let poison_bits = 0x7FF8DEADDEADDEADL
let poison = Int64.float_of_bits poison_bits
let is_poison x = Int64.equal (Int64.bits_of_float x) poison_bits

(* Fill and scan run in C (gemm_stubs.c): they are pure 64-bit pattern
   operations on the buffer, and the sanitizer runs them after every
   beta-accumulating op, so the per-element OCaml loop (with its Int64
   boxing and index arithmetic) was a measurable slice of sanitize-mode
   overhead. *)

external fill_poison_stub : buf -> int -> int -> unit = "caml_dt_fill_poison"
[@@noalloc]

external scan_poison_stub : buf -> int -> int -> int -> int -> int
  = "caml_dt_scan_poison"
[@@noalloc]

let fill_poison_buf (b : buf) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim b then
    invalid_arg "Tensor.fill_poison_buf: range";
  fill_poison_stub b pos len

let find_poison t =
  match scan_poison_stub t.data t.off t.rs t.rows t.cols with
  | -1 -> None
  | k -> Some k

let to_string t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "[%dx%d:" t.rows t.cols);
  for k = 0 to min (size t) 8 - 1 do
    Buffer.add_string b (Printf.sprintf " %.4g" (unsafe_get1 t k))
  done;
  if size t > 8 then Buffer.add_string b " ...";
  Buffer.add_string b "]";
  Buffer.contents b
