(* Write-ahead journal for incremental updates, written with {!Codec}.
   An entry on disk is

     u64 payload_len | u64 fnv64(payload) | payload

   with the payload [meta | base_rev | rows | cols | n | floats | f], so
   a torn tail (crash mid-append) is detected by either a short read or
   a checksum mismatch, and the intact prefix is still replayable. *)

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

let encode_entry e =
  let rows, cols = Linalg.Mat.dims e.xs in
  let w = Codec.writer (256 + (8 * ((rows * cols) + rows))) in
  let head = Codec.skip w 16 in
  Artifact.write_meta w e.meta;
  Codec.put_int w e.base_rev;
  Codec.put_int w rows;
  Codec.put_int w cols;
  Codec.put_int w (rows * cols);
  Codec.put_mat w e.xs;
  Codec.put_floats w e.f;
  let payload = head + 16 in
  Codec.set_int64 w head (Int64.of_int (Codec.length w - payload));
  Codec.set_int64 w (head + 8) (Codec.fnv64_from w payload);
  Codec.contents w

let decode_payload rd =
  let meta = Artifact.read_meta rd in
  let base_rev = Codec.get_int rd in
  let rows = Codec.get_int rd in
  let cols = Codec.get_int rd in
  if rows < 0 || cols < 0 then raise (Codec.Short "negative dims");
  let n = Codec.get_count rd ~per:8 "implausible float-array length" in
  if n <> rows * cols then raise (Codec.Short "xs size mismatch");
  let xs = Codec.get_mat rd "xs" rows cols in
  let f = Codec.get_floats rd "float-array" in
  if Array.length f <> rows then raise (Codec.Short "xs/f row count mismatch");
  if base_rev < 0 then raise (Codec.Short "negative base_rev");
  { meta; base_rev; xs; f }

(* The one entry-frame parser: the entry framed at [at], and the offset
   just past it. [whole] asks for exactly one entry ending the data (a
   wire-shipped record); otherwise bytes may follow (the journal file). *)
let parse_entry ~whole data at =
  let left = String.length data - at in
  if left < 16 then Stdlib.Error "truncated entry header"
  else begin
    let rd = Codec.reader ~off:at data in
    (* a length outside the int range reads as -1: refused below *)
    let payload_len = try Codec.get_int rd with Codec.Short _ -> -1 in
    let stored = Codec.get_int64 rd in
    if whole && payload_len <> left - 16 then
      Stdlib.Error "entry length mismatch"
    else if payload_len < 0 || payload_len > left - 16 then
      Stdlib.Error "truncated entry payload"
    else if
      not (Int64.equal (Codec.fnv64 data (at + 16) payload_len) stored)
    then Stdlib.Error "entry checksum mismatch"
    else
      match Codec.parse ~off:(at + 16) ~len:payload_len data decode_payload with
      | Ok e -> Ok (e, at + 16 + payload_len)
      | Stdlib.Error msg -> Stdlib.Error ("bad entry: " ^ msg)
  end

(* Tolerant scan: decode the longest valid prefix; describe why the
   tail (if any) was discarded. A crash mid-append leaves exactly this
   shape, so a truncated or garbage tail is expected, not an error. *)
let decode_entries data =
  if String.length data < String.length magic then
    ([], Some "missing journal header")
  else if not (String.starts_with ~prefix:magic data) then
    ([], Some "bad journal magic")
  else begin
    let rec go at acc =
      if at = String.length data then (List.rev acc, None)
      else
        match parse_entry ~whole:false data at with
        | Stdlib.Error why -> (List.rev acc, Some why)
        | Ok (e, next) -> go next (e :: acc)
    in
    go (String.length magic) []
  end

let read ~root =
  let f = file ~root in
  if not (Sys.file_exists f) then ([], None)
  else
    match Store.read_file f with
    | Ok data -> decode_entries data
    | Error msg -> raise (Sys_error msg)

(* One wire-shipped entry in the exact on-disk framing (len | fnv | payload),
   nothing before or after. Used by replication to validate streamed WAL
   records end to end with the same checksum the durability layer trusts. *)
let decode_entry data = Result.map fst (parse_entry ~whole:true data 0)

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
