(* Frame layout (little-endian):

     u32 length of the rest | u8 version | u8 kind | u64 id
     | u32 deadline_ms | [v2: u64 trace_id | u64 span_id] | body

   Version 1 frames carry no trace context; version 2 appends a
   trace/span-id pair to the header so a request (or a shipped WAL
   entry) can join a distributed trace. Decoders accept both, so a v1
   peer keeps working against a v2 daemon and vice versa.

   Header and bodies are written and read with Serving.Codec: i64 ints,
   IEEE-754 floats, length-prefixed strings and float arrays, and
   matrices as [rows | cols | floats]. Every decoder bounds-checks
   against the actual bytes received before allocating or looping, so
   advertised lengths can never drive allocation or work. *)

module Codec = Serving.Codec

let version = 2

let min_version = 1

let max_frame_len = 16 * 1024 * 1024

let header_len = 1 + 1 + 8 + 4

let header_len_v2 = header_len + 8 + 8

(* Largest predict batch whose [Predicted] response — u64 count, 8 bytes
   per mean, the std-presence byte, and (with variance) another counted
   float array — still fits under [max_frame_len]. Sized against the
   larger v2 header so it holds whichever version frames the response.
   Servers enforce this at admission so encoding a legitimate response
   can never overflow a frame. *)
let max_predict_rows ~with_std =
  let per_row = if with_std then 16 else 8 in
  let fixed = header_len_v2 + 8 + 1 + if with_std then 8 else 0 in
  (max_frame_len - fixed) / per_row

(* Same admission bound for [Ensemble_predicted]: three counted float
   arrays (mean, within-variance, between-variance), 24 bytes per row. *)
let max_ensemble_rows =
  let per_row = 24 in
  let fixed = header_len_v2 + (3 * 8) in
  (max_frame_len - fixed) / per_row

type opcode =
  | Ping
  | Predict
  | Predict_var
  | Update
  | List_models
  | Stats
  | Subscribe
  | Repl_ack
  | Promote
  | Events
  | Predict_ensemble
  | Ensemble_stats

let opcode_name = function
  | Ping -> "ping"
  | Predict -> "predict"
  | Predict_var -> "predict_with_variance"
  | Update -> "update"
  | List_models -> "list_models"
  | Stats -> "stats"
  | Subscribe -> "subscribe"
  | Repl_ack -> "repl_ack"
  | Promote -> "promote"
  | Events -> "events"
  | Predict_ensemble -> "predict_ensemble"
  | Ensemble_stats -> "ensemble_stats"

let opcode_byte = function
  | Ping -> 1
  | Predict -> 2
  | Predict_var -> 3
  | Update -> 4
  | List_models -> 5
  | Stats -> 6
  | Subscribe -> 7
  | Repl_ack -> 8
  | Promote -> 9
  | Events -> 10
  | Predict_ensemble -> 11
  | Ensemble_stats -> 12

(* The inverse of [opcode_byte], so each byte is assigned once. *)
let opcode_of_byte b =
  List.find_opt
    (fun op -> opcode_byte op = b)
    [ Ping; Predict; Predict_var; Update; List_models; Stats; Subscribe;
      Repl_ack; Promote; Events; Predict_ensemble; Ensemble_stats ]

type request =
  | Ping_req
  | Predict_req of {
      meta : Serving.Artifact.meta;
      points : Linalg.Mat.t;
      with_std : bool;
    }
  | Update_req of {
      meta : Serving.Artifact.meta;
      xs : Linalg.Mat.t;
      f : Linalg.Vec.t;
    }
  | List_models_req
  | Stats_req
  | Subscribe_req of { vector : (Serving.Artifact.meta * int) list }
  | Repl_ack_req of { seq : int }
  | Promote_req
  | Events_req
  | Predict_ensemble_req of { name : string; points : Linalg.Mat.t }
  | Ensemble_stats_req of { name : string }

let opcode_of_request = function
  | Ping_req -> Ping
  | Predict_req { with_std; _ } -> if with_std then Predict_var else Predict
  | Update_req _ -> Update
  | List_models_req -> List_models
  | Stats_req -> Stats
  | Subscribe_req _ -> Subscribe
  | Repl_ack_req _ -> Repl_ack
  | Promote_req -> Promote
  | Events_req -> Events
  | Predict_ensemble_req _ -> Predict_ensemble
  | Ensemble_stats_req _ -> Ensemble_stats

type error_code =
  | Busy
  | Deadline_exceeded
  | Model_not_found
  | Bad_request
  | Internal
  | Shutting_down
  | Protocol
  | Not_leader

let error_code_name = function
  | Busy -> "busy"
  | Deadline_exceeded -> "deadline_exceeded"
  | Model_not_found -> "model_not_found"
  | Bad_request -> "bad_request"
  | Internal -> "internal"
  | Shutting_down -> "shutting_down"
  | Protocol -> "protocol"
  | Not_leader -> "not_leader"

(* Response kind byte: 0 = OK, else one of these. *)
let error_byte = function
  | Busy -> 1
  | Deadline_exceeded -> 2
  | Model_not_found -> 3
  | Bad_request -> 4
  | Internal -> 5
  | Shutting_down -> 6
  | Protocol -> 7
  | Not_leader -> 8

let error_of_byte b =
  List.find_opt
    (fun code -> error_byte code = b)
    [ Busy; Deadline_exceeded; Model_not_found; Bad_request; Internal;
      Shutting_down; Protocol; Not_leader ]

type error = { code : error_code; message : string }

type model_info = {
  meta : Serving.Artifact.meta;
  rev : int;
  samples : int;
  terms : int;
  dim : int;
  file : string;
  bytes : int;
}

type response =
  | Pong
  | Predicted of { means : Linalg.Vec.t; stds : Linalg.Vec.t option }
  | Updated of { rev : int; samples : int }
  | Models of model_info list
  | Stats_payload of {
      uptime_s : float;
      requests : float;
      recovered_updates : float;
      role : string;
      journal_seq : int;
      shards : int;
      metrics_json : string;
    }
  | Promoted of { was_follower : bool; journal_seq : int }
  | Events_payload of { json : string }
  | Ensemble_predicted of {
      means : Linalg.Vec.t;
      within : Linalg.Vec.t;
      between : Linalg.Vec.t;
    }
  | Ensemble_stats_payload of { json : string }
  | Error of error

(* Pushes: unsolicited leader-to-subscriber frames on a replication
   link. Their kind bytes live in a disjoint space (32+) so a confused
   peer can never mistake one for a response (0-15) or request (1-12). *)

type push =
  | Snapshot_chunk of {
      meta : Serving.Artifact.meta;
      rev : int;
      total : int;
      offset : int;
      data : string;
    }
  | Journal_entry of { seq : int; ts : float; entry : string }
  | Repl_status of { seq : int; snapshots : int; ts : float }
  | Repl_heartbeat of { seq : int; ts : float }

let push_byte = function
  | Snapshot_chunk _ -> 32
  | Journal_entry _ -> 33
  | Repl_status _ -> 34
  | Repl_heartbeat _ -> 35

let is_push_kind k = k >= 32 && k <= 35

(* Room left for the chunk payload once the frame header, the meta
   (generously bounded) and the fixed ints are accounted for. *)
let max_snapshot_chunk = max_frame_len - header_len_v2 - 4096

(* ------------------------------------------------------------------ *)
(* Body helpers.                                                       *)

let write_mat w m =
  Codec.put_int w (Linalg.Mat.rows m);
  Codec.put_int w (Linalg.Mat.cols m);
  Codec.put_mat w m

let read_mat rd what =
  let rows = Codec.get_int rd in
  let cols = Codec.get_int rd in
  if rows < 0 || cols < 0 then raise (Codec.Short ("negative " ^ what ^ " dims"));
  Codec.get_mat rd what rows cols

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

(* [?trace] is the (trace_id, span_id) distributed-trace context. A
   frame with context is emitted as v2; without, as v1 — so an
   uninstrumented fleet keeps producing byte-identical v1 streams and
   both header layouts stay exercised. [~ver:2] forces the v2 header
   even with a zero context (push frames, whose v2 bodies carry
   timestamps regardless of tracing). The header and [write]'s body go
   into one buffer, first sized for [size] body bytes (a reply's hint);
   the length word is filled in last. *)
let frame ?ver ?trace ~kind ~id ~deadline_ms ?(size = 256) write =
  if id < 0 then invalid_arg "Wire: negative request id";
  if deadline_ms < 0 then invalid_arg "Wire: negative deadline";
  let trace_id, span_id = match trace with Some t -> t | None -> (0, 0) in
  if trace_id < 0 || span_id < 0 then
    invalid_arg "Wire: negative trace context";
  let v =
    match ver with
    | Some v ->
        if v < min_version || v > version then
          invalid_arg "Wire: bad frame version";
        if v = 1 && (trace_id <> 0 || span_id <> 0) then
          invalid_arg "Wire: trace context requires a v2 frame";
        v
    | None -> if trace_id <> 0 || span_id <> 0 then 2 else 1
  in
  let w = Codec.writer (4 + header_len_v2 + size) in
  let len_at = Codec.skip w 4 in
  Codec.put_u8 w v;
  Codec.put_u8 w kind;
  Codec.put_int w id;
  Codec.put_int32 w deadline_ms;
  if v >= 2 then begin
    Codec.put_int w trace_id;
    Codec.put_int w span_id
  end;
  write w;
  let n = Codec.length w - 4 in
  if n > max_frame_len then invalid_arg "Wire: frame exceeds max_frame_len";
  Codec.set_int32 w len_at n;
  Codec.contents w

type frame = {
  frame_version : int;
  frame_kind : int;
  frame_id : int;
  frame_deadline_ms : int;
  frame_trace : int;
  frame_span : int;
  body : string;
}

let peek s ~off =
  let have = String.length s - off in
  if have < 4 then `Need (4 - have)
  else begin
    let rd = Codec.reader ~off s in
    let n = Codec.get_int32 rd in
    if n < header_len then `Bad (Printf.sprintf "frame length %d too small" n)
    else if n > max_frame_len then
      `Bad (Printf.sprintf "frame length %d exceeds limit %d" n max_frame_len)
    else if have < 4 + n then `Need (4 + n - have)
    else begin
      let v = Codec.get_u8 rd in
      if v < min_version || v > version then
        `Bad (Printf.sprintf "unsupported version %d" v)
      else if v >= 2 && n < header_len_v2 then
        `Bad (Printf.sprintf "v2 frame length %d too small" n)
      else begin
        let frame_kind = Codec.get_u8 rd in
        let frame_id = try Codec.get_int rd with Codec.Short _ -> -1 in
        if frame_id < 0 then
          (* a u64 id with the top bits set; we could never echo it back
             ([frame] refuses negative ids), so refuse the stream *)
          `Bad "request id exceeds the representable range"
        else begin
          let frame_deadline_ms = Codec.get_int32 rd in
          (* Trace context is advisory: a u64 that does not fit the
             positive int range (garbage, or a foreign id scheme) is
             dropped to 0 rather than poisoning the stream. *)
          let u64_or_zero () =
            match Codec.get_int rd with
            | x when x >= 0 -> x
            | _ | (exception Codec.Short _) -> 0
          in
          let frame_trace = if v >= 2 then u64_or_zero () else 0 in
          let frame_span = if v >= 2 then u64_or_zero () else 0 in
          let hlen = if v >= 2 then header_len_v2 else header_len in
          let body = String.sub s (off + 4 + hlen) (n - hlen) in
          `Frame
            ( {
                frame_version = v;
                frame_kind;
                frame_id;
                frame_deadline_ms;
                frame_trace;
                frame_span;
                body;
              },
              off + 4 + n )
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

let encode_request ~id ?(deadline_ms = 0) ?trace req =
  frame ?trace
    ~kind:(opcode_byte (opcode_of_request req))
    ~id ~deadline_ms
    (fun w ->
      match req with
      | Ping_req | List_models_req | Stats_req | Promote_req | Events_req -> ()
      | Predict_req { meta; points; _ } ->
          Serving.Artifact.write_meta w meta;
          write_mat w points
      | Update_req { meta; xs; f } ->
          Serving.Artifact.write_meta w meta;
          write_mat w xs;
          Codec.put_floats w f
      | Subscribe_req { vector } ->
          Codec.put_int w (List.length vector);
          List.iter
            (fun (m, rev) ->
              Serving.Artifact.write_meta w m;
              Codec.put_int w rev)
            vector
      | Repl_ack_req { seq } -> Codec.put_int w seq
      | Predict_ensemble_req { name; points } ->
          Codec.put_string w name;
          write_mat w points
      | Ensemble_stats_req { name } -> Codec.put_string w name)

let parse_body f read = Codec.parse ~eof:"truncated body" f.body read

let decode_request f =
  match opcode_of_byte f.frame_kind with
  | None -> Stdlib.Error (Printf.sprintf "unknown opcode %d" f.frame_kind)
  | Some op ->
      Result.map_error
        (fun msg -> opcode_name op ^ ": " ^ msg)
        (parse_body f (fun rd ->
          match op with
          | Ping -> Ping_req
          | List_models -> List_models_req
          | Stats -> Stats_req
          | Predict | Predict_var ->
              let meta = Serving.Artifact.read_meta rd in
              let points = read_mat rd "points" in
              Predict_req { meta; points; with_std = op = Predict_var }
          | Update ->
              let meta = Serving.Artifact.read_meta rd in
              let xs = read_mat rd "xs" in
              let f = Codec.get_floats rd "f" in
              if Array.length f <> Linalg.Mat.rows xs then
                raise (Codec.Short "xs/f row count mismatch");
              Update_req { meta; xs; f }
          | Subscribe ->
              (* a vector element is at least 40 bytes (three length
                 prefixes + seed + rev), so bound n by the bytes held *)
              let n =
                Codec.get_count rd ~per:40 "implausible revision-vector length"
              in
              let vector =
                List.init n (fun _ ->
                    let m = Serving.Artifact.read_meta rd in
                    let rev = Codec.get_int rd in
                    if rev < 0 then raise (Codec.Short "negative revision");
                    (m, rev))
              in
              Subscribe_req { vector }
          | Repl_ack ->
              let seq = Codec.get_int rd in
              if seq < 0 then raise (Codec.Short "negative sequence");
              Repl_ack_req { seq }
          | Promote -> Promote_req
          | Events -> Events_req
          | Predict_ensemble ->
              let name = Codec.get_string rd in
              let points = read_mat rd "points" in
              if String.length name = 0 then
                raise (Codec.Short "empty ensemble name");
              Predict_ensemble_req { name; points }
          | Ensemble_stats ->
              (* an empty name means "every ensemble" *)
              let name = Codec.get_string rd in
              Ensemble_stats_req { name }))

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)

let encode_response ~id resp =
  let kind = match resp with Error { code; _ } -> error_byte code | _ -> 0 in
  let size =
    match resp with
    | Predicted { means; _ } | Ensemble_predicted { means; _ } ->
        64 + (24 * Array.length means)
    | _ -> 256
  in
  frame ~kind ~id ~deadline_ms:0 ~size (fun w ->
      match resp with
      | Pong -> ()
      | Predicted { means; stds } -> (
          Codec.put_floats w means;
          match stds with
          | None -> Codec.put_bool w false
          | Some stds ->
              Codec.put_bool w true;
              Codec.put_floats w stds)
      | Updated { rev; samples } ->
          Codec.put_int w rev;
          Codec.put_int w samples
      | Models infos ->
          Codec.put_int w (List.length infos);
          List.iter
            (fun i ->
              Serving.Artifact.write_meta w i.meta;
              Codec.put_int w i.rev;
              Codec.put_int w i.samples;
              Codec.put_int w i.terms;
              Codec.put_int w i.dim;
              Codec.put_string w i.file;
              Codec.put_int w i.bytes)
            infos
      | Stats_payload
          {
            uptime_s;
            requests;
            recovered_updates;
            role;
            journal_seq;
            shards;
            metrics_json;
          } ->
          Codec.put_float w uptime_s;
          Codec.put_float w recovered_updates;
          Codec.put_float w requests;
          Codec.put_string w role;
          Codec.put_int w journal_seq;
          Codec.put_int w shards;
          Codec.put_string w metrics_json
      | Promoted { was_follower; journal_seq } ->
          Codec.put_int w (if was_follower then 1 else 0);
          Codec.put_int w journal_seq
      | Events_payload { json } | Ensemble_stats_payload { json } ->
          Codec.put_string w json
      | Ensemble_predicted { means; within; between } ->
          Codec.put_floats w means;
          Codec.put_floats w within;
          Codec.put_floats w between
      | Error { message; _ } -> Codec.put_string w message)

let decode_response ~expect f =
  if f.frame_kind <> 0 then
    match error_of_byte f.frame_kind with
    | None ->
        Stdlib.Error (Printf.sprintf "unknown response kind %d" f.frame_kind)
    | Some code ->
        Result.map_error
          (fun msg -> "error frame: " ^ msg)
          (parse_body f (fun rd -> Error { code; message = Codec.get_string rd }))
  else
    Result.map_error
      (fun msg -> opcode_name expect ^ " response: " ^ msg)
      (parse_body f (fun rd ->
        match expect with
        | Ping -> Pong
        | Predict | Predict_var ->
            let means = Codec.get_floats rd "means" in
            let stds =
              if Codec.get_bool rd then Some (Codec.get_floats rd "stds")
              else None
            in
            Predicted { means; stds }
        | Update ->
            let rev = Codec.get_int rd in
            let samples = Codec.get_int rd in
            Updated { rev; samples }
        | List_models ->
            let n = Codec.get_count rd ~per:1 "implausible model count" in
            let infos =
              List.init n (fun _ ->
                  let meta = Serving.Artifact.read_meta rd in
                  let rev = Codec.get_int rd in
                  let samples = Codec.get_int rd in
                  let terms = Codec.get_int rd in
                  let dim = Codec.get_int rd in
                  let file = Codec.get_string rd in
                  let bytes = Codec.get_int rd in
                  { meta; rev; samples; terms; dim; file; bytes })
            in
            Models infos
        | Stats ->
            let uptime_s = Codec.get_float rd in
            let recovered_updates = Codec.get_float rd in
            let requests = Codec.get_float rd in
            let role = Codec.get_string rd in
            let journal_seq = Codec.get_int rd in
            let shards = Codec.get_int rd in
            let metrics_json = Codec.get_string rd in
            Stats_payload
              {
                uptime_s;
                requests;
                recovered_updates;
                role;
                journal_seq;
                shards;
                metrics_json;
              }
        | Promote ->
            let was_follower = Codec.get_int rd <> 0 in
            let journal_seq = Codec.get_int rd in
            Promoted { was_follower; journal_seq }
        | Events ->
            let json = Codec.get_string rd in
            Events_payload { json }
        | Predict_ensemble ->
            let means = Codec.get_floats rd "means" in
            let within = Codec.get_floats rd "within" in
            let between = Codec.get_floats rd "between" in
            if
              Array.length within <> Array.length means
              || Array.length between <> Array.length means
            then raise (Codec.Short "variance array length mismatch");
            Ensemble_predicted { means; within; between }
        | Ensemble_stats ->
            let json = Codec.get_string rd in
            Ensemble_stats_payload { json }
        | Subscribe | Repl_ack ->
            (* subscribe is answered by pushes on the same stream and
               repl_ack is fire-and-forget; only error frames (handled
               above) are legal replies *)
            raise (Codec.Short "no success response defined")))

(* ------------------------------------------------------------------ *)
(* Pushes.                                                             *)

(* Pushes always frame as v2: their v2 bodies carry the leader's
   wall-clock commit timestamp (the basis of follower lag-in-seconds),
   which exists whether or not any trace is active. [?trace] tags a
   [Journal_entry] with the originating update's context so the
   follower's apply span joins the client's trace. *)
let encode_push ?trace p =
  frame ~ver:2 ?trace ~kind:(push_byte p) ~id:0 ~deadline_ms:0 (fun w ->
      match p with
      | Snapshot_chunk { meta; rev; total; offset; data } ->
          Serving.Artifact.write_meta w meta;
          Codec.put_int w rev;
          Codec.put_int w total;
          Codec.put_int w offset;
          Codec.put_string w data
      | Journal_entry { seq; ts; entry } ->
          Codec.put_int w seq;
          Codec.put_float w ts;
          Codec.put_string w entry
      | Repl_status { seq; snapshots; ts } ->
          Codec.put_int w seq;
          Codec.put_int w snapshots;
          Codec.put_float w ts
      | Repl_heartbeat { seq; ts } ->
          Codec.put_int w seq;
          Codec.put_float w ts)

(* v1 peers encoded [Journal_entry] as [seq | entry] and [Repl_status]
   as [seq | snapshots] — no timestamp. Decode both layouts, keyed on
   the frame version, with [ts = 0.] standing in for "unknown". *)
let decode_push f =
  let what =
    match f.frame_kind with
    | 32 -> "snapshot_chunk"
    | 33 -> "journal_entry"
    | 34 -> "repl_status"
    | 35 -> "repl_heartbeat"
    | k -> Printf.sprintf "push kind %d" k
  in
  Result.map_error
    (fun msg -> what ^ ": " ^ msg)
    (parse_body f (fun rd ->
      match f.frame_kind with
      | 32 ->
          let meta = Serving.Artifact.read_meta rd in
          let rev = Codec.get_int rd in
          let total = Codec.get_int rd in
          let offset = Codec.get_int rd in
          let data = Codec.get_string rd in
          if rev < 0 then raise (Codec.Short "negative revision");
          if total < 0 || offset < 0 || offset > total then
            raise (Codec.Short "inconsistent chunk geometry");
          if offset + String.length data > total then
            raise (Codec.Short "chunk overruns advertised total");
          Snapshot_chunk { meta; rev; total; offset; data }
      | 33 ->
          let seq = Codec.get_int rd in
          let ts = if f.frame_version >= 2 then Codec.get_float rd else 0. in
          let entry = Codec.get_string rd in
          if seq < 0 then raise (Codec.Short "negative sequence");
          Journal_entry { seq; ts; entry }
      | 34 ->
          let seq = Codec.get_int rd in
          let snapshots = Codec.get_int rd in
          let ts = if f.frame_version >= 2 then Codec.get_float rd else 0. in
          if seq < 0 || snapshots < 0 then
            raise (Codec.Short "negative counts");
          Repl_status { seq; snapshots; ts }
      | 35 ->
          let seq = Codec.get_int rd in
          let ts = Codec.get_float rd in
          if seq < 0 then raise (Codec.Short "negative sequence");
          Repl_heartbeat { seq; ts }
      | k -> raise (Codec.Short (Printf.sprintf "unknown push kind %d" k))))
