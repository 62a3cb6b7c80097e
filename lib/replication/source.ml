(* Subscriber registry for the leader. Connections are opaque and
   compared physically: the daemon owns the sockets, we own the acks. *)

let m_subscribers =
  Obs.Metrics.gauge ~help:"Connected replication subscribers"
    "bmf_repl_subscribers"

let m_lag =
  Obs.Metrics.gauge
    ~help:"Entries committed on the leader but not yet acked by the slowest subscriber"
    "bmf_repl_lag_entries"

let m_shipped =
  Obs.Metrics.counter ~help:"Journal entries shipped to subscribers"
    "bmf_repl_shipped_total"

let m_snapshots =
  Obs.Metrics.counter ~help:"Catch-up snapshots sent"
    "bmf_repl_snapshots_sent_total"

let m_snapshot_bytes =
  Obs.Metrics.counter ~help:"Catch-up snapshot bytes sent"
    "bmf_repl_snapshot_bytes_total"

type 'conn sub = { conn : 'conn; mutable acked : int }

type 'conn t = { mutable subs : 'conn sub list }

let create () = { subs = [] }

let plan_catchup ~have ~vector =
  List.filter_map
    (fun (a : Serving.Artifact.t) ->
      let follower_rev =
        List.find_map
          (fun (m, rev) -> if m = a.meta then Some rev else None)
          vector
      in
      match follower_rev with
      | Some rev when rev >= a.rev -> None
      | _ -> Some (a.meta, a.rev, Serving.Artifact.to_string Binary a))
    have

let find t conn = List.find_opt (fun s -> s.conn == conn) t.subs

let register t conn ~acked =
  match find t conn with
  | Some s -> s.acked <- acked
  | None ->
      t.subs <- t.subs @ [ { conn; acked } ];
      Obs.Metrics.set m_subscribers (float_of_int (List.length t.subs))

let drop t conn =
  let before = List.length t.subs in
  t.subs <- List.filter (fun s -> not (s.conn == conn)) t.subs;
  if List.length t.subs <> before then
    Obs.Metrics.set m_subscribers (float_of_int (List.length t.subs))

let ack t conn ~seq =
  match find t conn with
  | Some s -> if seq > s.acked then s.acked <- seq
  | None -> ()

let subscribers t = List.map (fun s -> s.conn) t.subs

let count t = List.length t.subs

let min_acked t =
  List.fold_left
    (fun acc s ->
      match acc with None -> Some s.acked | Some m -> Some (min m s.acked))
    None t.subs

let note_lag t ~seq =
  let lag = match min_acked t with None -> 0 | Some a -> max 0 (seq - a) in
  Obs.Metrics.set m_lag (float_of_int lag)

let note_shipped ~entries =
  Obs.Metrics.inc ~by:(float_of_int entries) m_shipped

let note_snapshot ~bytes =
  Obs.Metrics.inc m_snapshots;
  Obs.Metrics.inc ~by:(float_of_int bytes) m_snapshot_bytes
