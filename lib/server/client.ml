(* Synchronous wire-protocol client: blocking socket, one in-flight
   request at a time, responses matched by id. *)

exception Transport of string

type t = {
  addr : Daemon.address;
  mutable fd : Unix.file_descr;
  mutable next_id : int;
  mutable inbuf : string;
  mutable closed : bool;
  backoff : Replication.Backoff.t;
}

type server_stats = {
  uptime_s : float;
  requests : float;
  recovered_updates : float;
  role : string;
  journal_seq : int;
  shards : int;
  metrics_json : string;
}

let sockaddr_of = function
  | Daemon.Tcp (host, port) ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  | Daemon.Unix_socket path -> Unix.ADDR_UNIX path

let connect_fd ~retries ~retry_delay_s addr =
  let sockaddr = sockaddr_of addr in
  let domain =
    match addr with
    | Daemon.Tcp _ -> Unix.PF_INET
    | Daemon.Unix_socket _ -> Unix.PF_UNIX
  in
  let rec attempt left =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when left > 0 ->
        Unix.close fd;
        Unix.sleepf retry_delay_s;
        attempt (left - 1)
    | exception e ->
        Unix.close fd;
        (match e with
        | Unix.Unix_error (err, _, _) ->
            raise
              (Transport
                 (Format.asprintf "connect %a: %s" Daemon.pp_address addr
                    (Unix.error_message err)))
        | e -> raise e)
  in
  attempt retries

let connect ?(retries = 50) ?(retry_delay_s = 0.1) addr =
  {
    addr;
    fd = connect_fd ~retries ~retry_delay_s addr;
    next_id = 1;
    inbuf = "";
    closed = false;
    backoff = Replication.Backoff.create ();
  }

let address t = t.addr

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* A blip (ECONNREFUSED while the daemon restarts, EPIPE/reset on a
   dropped socket) used to kill the connection permanently; reconnect
   dials again under the shared capped-exponential backoff. Attempts are
   bounded by the policy; success rearms it. *)
let reconnect t =
  close t;
  let rec attempt () =
    if Replication.Backoff.exhausted t.backoff then
      raise
        (Transport
           (Format.asprintf "reconnect %a: %d attempts exhausted"
              Daemon.pp_address t.addr
              (Replication.Backoff.attempts t.backoff)));
    Unix.sleepf (Replication.Backoff.next_delay_s t.backoff);
    match connect_fd ~retries:0 ~retry_delay_s:0. t.addr with
    | fd -> fd
    | exception Transport _ -> attempt ()
  in
  let fd = attempt () in
  t.fd <- fd;
  t.inbuf <- "";
  t.closed <- false;
  Replication.Backoff.reset t.backoff

let send_all t s =
  let n = String.length s in
  let at = ref 0 in
  try
    while !at < n do
      at := !at + Unix.single_write_substring t.fd s !at (n - !at)
    done
  with Unix.Unix_error (err, _, _) ->
    close t;
    raise (Transport ("write: " ^ Unix.error_message err))

let chunk = 65536

let recv_frame t =
  let buf = Bytes.create chunk in
  let rec loop () =
    match Wire.peek t.inbuf ~off:0 with
    | `Frame (frame, next) ->
        t.inbuf <-
          String.sub t.inbuf next (String.length t.inbuf - next);
        frame
    | `Bad msg ->
        close t;
        raise (Transport ("protocol: " ^ msg))
    | `Need _ -> (
        match Unix.read t.fd buf 0 chunk with
        | 0 ->
            close t;
            raise (Transport "connection closed by server")
        | n ->
            t.inbuf <- t.inbuf ^ Bytes.sub_string buf 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error (err, _, _) ->
            close t;
            raise (Transport ("read: " ^ Unix.error_message err)))
  in
  loop ()

let roundtrip t ?deadline_ms req =
  if t.closed then raise (Transport "client is closed");
  let id = t.next_id in
  t.next_id <- id + 1;
  let op = Wire.opcode_name (Wire.opcode_of_request req) in
  (* each call runs inside a client span; the span's (trace, id) rides
     the frame header so the server's spans become its children. When
     tracing is off [current] is [None] and the frame stays v1. *)
  Obs.Trace.with_span ~cat:"client"
    ~attrs:[ ("op", Obs.Trace.Str op) ]
    ("cli_" ^ op)
  @@ fun _span ->
  let trace = Obs.Trace.current () in
  send_all t (Wire.encode_request ~id ?deadline_ms ?trace req);
  (* responses arrive in request order on this connection; skip any
     stray frame with an older id (e.g. after an abandoned call) *)
  let rec await () =
    let frame = recv_frame t in
    if frame.Wire.frame_id = id then frame
    else if frame.Wire.frame_id < id then await ()
    else begin
      close t;
      raise
        (Transport
           (Printf.sprintf "response id %d does not match request %d"
              frame.Wire.frame_id id))
    end
  in
  let frame = await () in
  match
    Wire.decode_response ~expect:(Wire.opcode_of_request req) frame
  with
  | Error msg ->
      close t;
      raise (Transport ("decode: " ^ msg))
  | Ok (Wire.Error e) -> Error e
  | Ok resp -> Ok resp

let unexpected () = raise (Transport "unexpected response payload")

let ping t =
  match roundtrip t Wire.Ping_req with
  | Ok Wire.Pong -> Ok ()
  | Ok _ -> unexpected ()
  | Error e -> Error e

let predict t ?deadline_ms meta points =
  match
    roundtrip t ?deadline_ms
      (Wire.Predict_req { meta; points; with_std = false })
  with
  | Ok (Wire.Predicted { means; _ }) -> Ok means
  | Ok _ -> unexpected ()
  | Error e -> Error e

let predict_with_std t ?deadline_ms meta points =
  match
    roundtrip t ?deadline_ms
      (Wire.Predict_req { meta; points; with_std = true })
  with
  | Ok (Wire.Predicted { means; stds = Some stds }) -> Ok (means, stds)
  | Ok _ -> unexpected ()
  | Error e -> Error e

let update t ?deadline_ms meta ~xs ~f =
  match roundtrip t ?deadline_ms (Wire.Update_req { meta; xs; f }) with
  | Ok (Wire.Updated { rev; samples }) -> Ok (rev, samples)
  | Ok _ -> unexpected ()
  | Error e -> Error e

let list_models t =
  match roundtrip t Wire.List_models_req with
  | Ok (Wire.Models infos) -> Ok infos
  | Ok _ -> unexpected ()
  | Error e -> Error e

let stats t =
  match roundtrip t Wire.Stats_req with
  | Ok
      (Wire.Stats_payload
        {
          uptime_s;
          requests;
          recovered_updates;
          role;
          journal_seq;
          shards;
          metrics_json;
        }) ->
      Ok
        {
          uptime_s;
          requests;
          recovered_updates;
          role;
          journal_seq;
          shards;
          metrics_json;
        }
  | Ok _ -> unexpected ()
  | Error e -> Error e

let predict_ensemble t ?deadline_ms ~name points =
  match
    roundtrip t ?deadline_ms (Wire.Predict_ensemble_req { name; points })
  with
  | Ok (Wire.Ensemble_predicted { means; within; between }) ->
      Ok (means, within, between)
  | Ok _ -> unexpected ()
  | Error e -> Error e

let ensemble_stats t ?(name = "") () =
  match roundtrip t (Wire.Ensemble_stats_req { name }) with
  | Ok (Wire.Ensemble_stats_payload { json }) -> Ok json
  | Ok _ -> unexpected ()
  | Error e -> Error e

let events t =
  match roundtrip t Wire.Events_req with
  | Ok (Wire.Events_payload { json }) -> Ok json
  | Ok _ -> unexpected ()
  | Error e -> Error e

let promote t =
  match roundtrip t Wire.Promote_req with
  | Ok (Wire.Promoted { was_follower; journal_seq }) ->
      Ok (was_follower, journal_seq)
  | Ok _ -> unexpected ()
  | Error e -> Error e

(* The Not_leader message embeds the leader address in the canonical
   [tcp://...]/[unix://...] rendering; fish it back out. *)
let leader_hint (e : Wire.error) =
  match e.Wire.code with
  | Wire.Not_leader ->
      let msg = e.Wire.message in
      let find sub =
        let ls = String.length sub and lm = String.length msg in
        let rec go i =
          if i + ls > lm then None
          else if String.sub msg i ls = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      let at =
        match (find "tcp://", find "unix://") with
        | Some a, Some b -> Some (Stdlib.min a b)
        | (Some _ as s), None | None, (Some _ as s) -> s
        | None, None -> None
      in
      Option.bind at (fun i ->
          Daemon.parse_address (String.sub msg i (String.length msg - i)))
  | _ -> None

let update_with_redirect t ?deadline_ms meta ~xs ~f =
  match update t ?deadline_ms meta ~xs ~f with
  | Error e as r -> (
      match leader_hint e with
      | None -> (r, None)
      | Some leader ->
          (* one transparent retry against the leader the follower named,
             over a short-lived connection of its own *)
          let c = connect ~retries:5 ~retry_delay_s:0.05 leader in
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () -> (update c ?deadline_ms meta ~xs ~f, Some leader)))
  | r -> (r, None)
