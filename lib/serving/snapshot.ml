(* Atomic-swap model snapshots. Design notes:

   - Views are immutable association lists (registries are a handful of
     models, not thousands); replacing one model copies the spine but
     shares every untouched entry, so a publish is O(models) tiny
     allocations and readers never see a half-updated table.
   - The handle is a single [Atomic.t]. [Atomic.set] has release
     semantics and [Atomic.get] acquire semantics in the OCaml 5 memory
     model, so an entry (artifact + pre-computed predictor) is fully
     visible to any reader that observes the view containing it.
   - Single writer by contract: the daemon's writer domain is the only
     mutator, which is what keeps version numbers strictly increasing
     without a CAS loop. *)

type entry = { artifact : Artifact.t; predictor : Predictor.t }

type view = { version : int; table : (Artifact.meta * entry) list }

type t = view Atomic.t

let create () : t = Atomic.make { version = 0; table = [] }

let current (t : t) = Atomic.get t

let version v = v.version

let find v meta = List.assoc_opt meta v.table

let models v = v.table

let entry_of artifact =
  { artifact; predictor = Predictor.of_artifact artifact }

let publish (t : t) (artifact : Artifact.t) =
  let e = entry_of artifact in
  let v = Atomic.get t in
  let table =
    (artifact.Artifact.meta, e)
    :: List.filter (fun (m, _) -> m <> artifact.Artifact.meta) v.table
  in
  Atomic.set t { version = v.version + 1; table };
  e

let load_all ~root (t : t) =
  let v = Atomic.get t in
  let table =
    Store.list ~root
    |> List.filter_map (fun (e : Store.entry) ->
           match e.status with
           | Error _ -> None
           | Ok a -> Some (a.Artifact.meta, entry_of a))
  in
  Atomic.set t { version = v.version + 1; table };
  List.length table
