let m_snapshots =
  Obs.Metrics.counter ~help:"Catch-up snapshots installed"
    "bmf_repl_snapshots_applied_total"

let snapshot ?(durability = `Durable) ~root data =
  match Serving.Artifact.of_string data with
  | Error msg -> Error ("bad snapshot: " ^ msg)
  | Ok a -> (
      match Serving.Store.load ~root a.meta with
      | Ok local when local.Serving.Artifact.rev >= a.rev ->
          Ok local (* already there or ahead: idempotent no-op *)
      | Ok _ | Error _ ->
          ignore (Serving.Store.save ~durability ~root a);
          Obs.Metrics.inc m_snapshots;
          Ok a)
