(* Every bulk float move is one loop here, between [String.get_int64_le]
   / [Bytes.set_int64_le] (inlined loads and stores) and a flat
   [float array] or a Bigarray of known kind, through the unboxed
   noalloc [Int64.float_of_bits] / [bits_of_float]: nothing is boxed. A
   run through [put_float] / [get_float] would box every element. *)

(* A loop, not [String.iter]: the closure would box the Int64
   accumulator on every byte, where the local ref stays unboxed. *)
let fnv64 s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Codec.fnv64: range out of bounds";
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer n = { buf = Bytes.create (Stdlib.max 16 n); len = 0 }

let length w = w.len

let contents w = Bytes.sub_string w.buf 0 w.len

let skip w n =
  if n < 0 then invalid_arg "Codec.skip: negative length";
  let at = w.len in
  if n > Bytes.length w.buf - at then begin
    let buf = Bytes.create (Stdlib.max (at + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 buf 0 at;
    w.buf <- buf
  end;
  w.len <- at + n;
  at

let put_u8 w v = Bytes.set_uint8 w.buf (skip w 1) v

let put_bool w b = put_u8 w (if b then 1 else 0)

let put_int32 w n = Bytes.set_int32_le w.buf (skip w 4) (Int32.of_int n)

let put_int w n = Bytes.set_int64_le w.buf (skip w 8) (Int64.of_int n)

let put_float w x = Bytes.set_int64_le w.buf (skip w 8) (Int64.bits_of_float x)

let put_raw w s =
  Bytes.blit_string s 0 w.buf (skip w (String.length s)) (String.length s)

let put_string w s =
  put_int w (String.length s);
  put_raw w s

let put_floats w a =
  put_int w (Array.length a);
  let at = skip w (8 * Array.length a) in
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_le w.buf (at + (8 * i))
      (Int64.bits_of_float (Array.unsafe_get a i))
  done

let put_mat w m =
  let n = Linalg.Mat.rows m * Linalg.Mat.cols m and d = Linalg.Mat.data m in
  let at = skip w (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le w.buf (at + (8 * i))
      (Int64.bits_of_float (Bigarray.Array1.unsafe_get d i))
  done

let put_lower w m =
  let k = Linalg.Mat.rows m and d = Linalg.Mat.data m in
  if Linalg.Mat.cols m <> k then invalid_arg "Codec.put_lower: not square";
  let o = ref (skip w (8 * (k * (k + 1) / 2))) in
  for i = 0 to k - 1 do
    for j = 0 to i do
      Bytes.set_int64_le w.buf !o
        (Int64.bits_of_float (Bigarray.Array1.unsafe_get d ((i * k) + j)));
      o := !o + 8
    done
  done

let patch w at n =
  if at < 0 || at > w.len - n then invalid_arg "Codec: patch out of bounds" else at

let set_int32 w at n = Bytes.set_int32_le w.buf (patch w at 4) (Int32.of_int n)

let set_int64 w at x = Bytes.set_int64_le w.buf (patch w at 8) x

(* The string view lives only for the hash: nothing writes [w.buf]
   meanwhile. *)
let fnv64_from w at = fnv64 (Bytes.unsafe_to_string w.buf) at (w.len - at)

(* ------------------------------------------------------------------ *)
(* Reader.                                                             *)

exception Short of string

type reader = { data : string; mutable at : int; stop : int; eof : string }

let reader ?(eof = "truncated") ?(off = 0) ?len data =
  let len = Option.value len ~default:(String.length data - off) in
  if off < 0 || len < 0 || off > String.length data - len then
    invalid_arg "Codec.reader: range out of bounds";
  { data; at = off; stop = off + len; eof }

let remaining rd = rd.stop - rd.at

(* [rd.stop - rd.at] never overflows ([rd.at] is a valid offset),
   whereas [rd.at + n] wraps for n near max_int. *)
let take rd n =
  if n < 0 || n > rd.stop - rd.at then raise (Short rd.eof);
  rd.at <- rd.at + n;
  rd.at - n

let get_u8 rd = String.get_uint8 rd.data (take rd 1)

let get_bool rd = get_u8 rd <> 0

let get_int32 rd = Int32.to_int (String.get_int32_le rd.data (take rd 4))

let get_int64 rd = String.get_int64_le rd.data (take rd 8)

(* Every stored i64 was written from an OCaml int: one outside the int
   range is corrupt, where [Int64.to_int] alone would drop its top bit. *)
let get_int rd =
  let x = String.get_int64_le rd.data (take rd 8) in
  if not (Int64.equal (Int64.of_int (Int64.to_int x)) x) then
    raise (Short "integer out of range");
  Int64.to_int x

let get_float rd =
  Int64.float_of_bits (String.get_int64_le rd.data (take rd 8))

let get_string rd =
  let n = get_int rd in
  if n < 0 then raise (Short "negative string length");
  String.sub rd.data (take rd n) n

let get_count rd ~per msg =
  let n = get_int rd in
  if n < 0 || n > remaining rd / per then raise (Short msg);
  n

let get_floats rd what =
  let n = get_int rd in
  if n < 0 || n > remaining rd / 8 then
    raise (Short ("implausible " ^ what ^ " length"));
  let a = Array.create_float n and at = take rd (8 * n) in
  for i = 0 to n - 1 do
    Array.unsafe_set a i
      (Int64.float_of_bits (String.get_int64_le rd.data (at + (8 * i))))
  done;
  a

let get_mat rd what rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Codec.get_mat: negative dimension";
  let left = remaining rd in
  if rows > left || (cols > 0 && rows > left / 8 / cols) then
    raise (Short ("implausible " ^ what ^ " size"));
  let m = Linalg.Mat.create rows cols in
  let d = Linalg.Mat.data m and at = take rd (8 * rows * cols) in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set d i
      (Int64.float_of_bits (String.get_int64_le rd.data (at + (8 * i))))
  done;
  m

let get_lower rd k =
  if k < 0 then invalid_arg "Codec.get_lower: negative dimension";
  let l = remaining rd / 8 in
  (* k (k + 1) / 2 <= l, checked without forming k (k + 1) *)
  if k > 0 && (k > l || k + 1 > 2 * l / k) then
    raise (Short "implausible lower triangle");
  let m = Linalg.Mat.create k k in
  let d = Linalg.Mat.data m and o = ref (take rd (8 * (k * (k + 1) / 2))) in
  for i = 0 to k - 1 do
    for j = 0 to i do
      Bigarray.Array1.unsafe_set d ((i * k) + j)
        (Int64.float_of_bits (String.get_int64_le rd.data !o));
      o := !o + 8
    done
  done;
  m

let parse ?eof ?off ?len s read =
  let rd = reader ?eof ?off ?len s in
  match read rd with
  | v -> if rd.at = rd.stop then Ok v else Error "trailing bytes"
  | exception Short msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Envelope: magic | u64 fnv64(payload) | payload.                     *)

let sealed ~magic ~size write =
  let w = writer (String.length magic + 8 + size) in
  put_raw w magic;
  let sum = skip w 8 in
  write w;
  set_int64 w sum (fnv64_from w (sum + 8));
  contents w

let unsealed ~magic ?eof s read =
  let head = String.length magic + 8 in
  if String.length s < head then Error "truncated file"
  else if not (String.starts_with ~prefix:magic s) then Error "bad magic"
  else if
    not
      (Int64.equal
         (String.get_int64_le s (String.length magic))
         (fnv64 s head (String.length s - head)))
  then Error "checksum mismatch (corrupt file)"
  else parse ?eof ~off:head s read
