(* Write-ahead journal for incremental updates.

   Framing mirrors the Artifact binary codec conventions: every integer
   is a little-endian i64, floats are IEEE-754 bit patterns, strings and
   float arrays are length-prefixed. An entry on disk is

     u64 payload_len | u64 fnv64(payload) | payload

   so a torn tail (crash mid-append) is detected by either a short read
   or a checksum mismatch, and the intact prefix is still replayable. *)

let magic = "BMFJRNL1"

let default_basename = "journal.bmfj"

let file ~root = Filename.concat root default_basename

type entry = {
  meta : Artifact.meta;
  base_rev : int;
  xs : Linalg.Mat.t;
  f : Linalg.Vec.t;
}

(* ------------------------------------------------------------------ *)
(* Codec.                                                              *)

let put_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_floats buf arr =
  put_int buf (Array.length arr);
  Array.iter (put_float buf) arr

let encode_payload e =
  let buf = Buffer.create 256 in
  put_string buf e.meta.Artifact.circuit;
  put_string buf e.meta.Artifact.metric;
  put_string buf e.meta.Artifact.scale;
  put_int buf e.meta.Artifact.seed;
  put_int buf e.base_rev;
  put_int buf (Linalg.Mat.rows e.xs);
  put_int buf (Linalg.Mat.cols e.xs);
  put_floats buf (Linalg.Mat.to_flat e.xs);
  put_floats buf e.f;
  Buffer.contents buf

let encode_entry e =
  let payload = encode_payload e in
  let buf = Buffer.create (16 + String.length payload) in
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_int64_le buf (Artifact.fnv64 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

exception Bad of string

type reader = { data : string; mutable at : int }

let take rd n =
  if n < 0 || n > String.length rd.data - rd.at then raise (Bad "truncated");
  let at = rd.at in
  rd.at <- rd.at + n;
  at

let get_int rd = Int64.to_int (String.get_int64_le rd.data (take rd 8))

let get_float rd = Int64.float_of_bits (String.get_int64_le rd.data (take rd 8))

let get_string rd =
  let n = get_int rd in
  if n < 0 then raise (Bad "negative string length");
  String.sub rd.data (take rd n) n

let get_floats rd =
  let n = get_int rd in
  if n < 0 || n > (String.length rd.data - rd.at) / 8 then
    raise (Bad "implausible float-array length");
  Array.init n (fun _ -> get_float rd)

let decode_payload payload =
  let rd = { data = payload; at = 0 } in
  let circuit = get_string rd in
  let metric = get_string rd in
  let scale = get_string rd in
  let seed = get_int rd in
  let base_rev = get_int rd in
  let rows = get_int rd in
  let cols = get_int rd in
  if rows < 0 || cols < 0 then raise (Bad "negative dims");
  let data = get_floats rd in
  let f = get_floats rd in
  if rd.at <> String.length payload then raise (Bad "trailing bytes");
  if Array.length data <> rows * cols then raise (Bad "xs size mismatch");
  if Array.length f <> rows then raise (Bad "xs/f row count mismatch");
  if base_rev < 0 then raise (Bad "negative base_rev");
  let xs = Linalg.Mat.init rows cols (fun i j -> data.((i * cols) + j)) in
  { meta = { Artifact.circuit; metric; scale; seed }; base_rev; xs; f }

(* Tolerant scan: decode the longest valid prefix; describe why the
   tail (if any) was discarded. A crash mid-append leaves exactly this
   shape, so a truncated or garbage tail is expected, not an error. *)
let decode_entries data =
  if String.length data < String.length magic then
    ([], Some "missing journal header")
  else if String.sub data 0 (String.length magic) <> magic then
    ([], Some "bad journal magic")
  else begin
    let len = String.length data in
    let rec go at acc =
      if at = len then (List.rev acc, None)
      else if len - at < 16 then
        (List.rev acc, Some "truncated entry header")
      else begin
        let payload_len = Int64.to_int (String.get_int64_le data at) in
        let stored = String.get_int64_le data (at + 8) in
        if payload_len < 0 || payload_len > len - at - 16 then
          (List.rev acc, Some "truncated entry payload")
        else begin
          let payload = String.sub data (at + 16) payload_len in
          if not (Int64.equal (Artifact.fnv64 payload) stored) then
            (List.rev acc, Some "entry checksum mismatch")
          else
            match decode_payload payload with
            | exception Bad msg -> (List.rev acc, Some ("bad entry: " ^ msg))
            | e -> go (at + 16 + payload_len) (e :: acc)
        end
      end
    in
    go (String.length magic) []
  end

let read ~root =
  let f = file ~root in
  if not (Sys.file_exists f) then ([], None)
  else begin
    let ic = open_in_bin f in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    decode_entries data
  end

(* One wire-shipped entry in the exact on-disk framing (len | fnv | payload),
   nothing before or after. Used by replication to validate streamed WAL
   records end to end with the same checksum the durability layer trusts. *)
let decode_entry data =
  let len = String.length data in
  if len < 16 then Stdlib.Error "truncated entry header"
  else begin
    let payload_len = Int64.to_int (String.get_int64_le data 0) in
    let stored = String.get_int64_le data 8 in
    if payload_len < 0 || payload_len <> len - 16 then
      Stdlib.Error "entry length mismatch"
    else begin
      let payload = String.sub data 16 payload_len in
      if not (Int64.equal (Artifact.fnv64 payload) stored) then
        Stdlib.Error "entry checksum mismatch"
      else
        match decode_payload payload with
        | exception Bad msg -> Stdlib.Error ("bad entry: " ^ msg)
        | e -> Ok e
    end
  end

(* ------------------------------------------------------------------ *)
(* Append handle.                                                      *)

type t = {
  fd : Unix.file_descr;
  durability : Store.durability;
  mutable entries : int;  (* entries currently in the live file *)
}

let m_appends =
  Obs.Metrics.counter ~help:"Journal entries appended"
    "bmf_journal_appends_total"

let m_bytes =
  Obs.Metrics.counter ~help:"Journal bytes written"
    "bmf_journal_bytes_written_total"

let maybe_fsync t =
  match t.durability with
  | `Fast -> ()
  | `Durable ->
      Crashpoint.step ();
      Unix.fsync t.fd

let open_ ?(durability = `Durable) ~root () =
  Store.mkdir_p root;
  let path = file ~root in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let t = { fd; durability; entries = 0 } in
  (* existing tails are the recovery module's business (replayed before
     the daemon opens its handle): an append handle always starts from
     a clean, header-only file *)
  Crashpoint.step ();
  Unix.ftruncate fd 0;
  Crashpoint.step ();
  Store.write_all fd magic;
  maybe_fsync t;
  t

let append t entry =
  let bytes = encode_entry entry in
  Crashpoint.step ();
  Store.write_all t.fd bytes;
  (* fsync BEFORE the caller applies the update: once [append] returns
     the entry survives SIGKILL, so an acknowledged update can always be
     replayed even if the artifact save never completes *)
  maybe_fsync t;
  t.entries <- t.entries + 1;
  Obs.Metrics.inc m_appends;
  Obs.Metrics.inc ~by:(float_of_int (String.length bytes)) m_bytes

let truncate t =
  Crashpoint.step ();
  Unix.ftruncate t.fd (String.length magic);
  ignore (Unix.lseek t.fd (String.length magic) Unix.SEEK_SET);
  maybe_fsync t;
  t.entries <- 0

let entries t = t.entries

let close t = Unix.close t.fd
