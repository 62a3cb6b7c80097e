type verdict = Apply | Stale | Gap

let rule ~rev (e : Journal.entry) =
  if rev > e.base_rev then Stale else if rev < e.base_rev then Gap else Apply

let fold base (e : Journal.entry) =
  let inc = Incremental.of_artifact base in
  Incremental.add_batch inc ~xs:e.xs ~f:e.f;
  Incremental.to_artifact inc

let commit ~durability ~root journal base entry =
  match
    (* once the append returns, a crash can no longer lose the update:
       recovery replays it against the base revision *)
    Journal.append journal entry;
    let updated = fold base entry in
    ignore (Store.save ~durability ~root updated);
    (* the artifact is durable: the entry has served its purpose and
       must not be replayed on the next start *)
    Journal.truncate journal;
    updated
  with
  | updated -> updated
  | exception e ->
      (* the update was refused (degenerate sample, I/O error): roll the
         journal back so it cannot replay as if it had been accepted *)
      (try Journal.truncate journal with _ -> ());
      raise e
