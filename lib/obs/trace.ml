type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  id : int;
  trace : int; (* 0 = no distributed trace id *)
  name : string;
  cat : string;
  start_us : float;
  parent : int option;
  depth : int;
  mutable attrs : (string * value) list; (* newest first *)
  live : bool;
}

type event =
  | Complete of {
      id : int;
      trace : int;
      name : string;
      cat : string;
      start_us : float;
      dur_us : float;
      parent : int option;
      depth : int;
      attrs : (string * value) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      attrs : (string * value) list;
    }

let on = ref false

let limit = ref 200_000

(* Every domain records into its own lane: a private buffer, span stack
   and drop counter, reached through domain-local storage so recording
   never takes a lock. Worker domains flush their lane into [merged]
   (tid-tagged, mutex-guarded) when a pool task or the domain itself
   finishes; the export then renders each lane as its own tid row. *)
type lane = {
  tid : int;
  mutable buf : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable stack : span list;
}

let next_tid = Atomic.make 1

let fresh_lane () =
  {
    tid = Atomic.fetch_and_add next_tid 1;
    buf = [];
    count = 0;
    dropped = 0;
    stack = [];
  }

(* Module initialization runs on the main domain, so the main lane is
   always tid 1. *)
let main_lane = fresh_lane ()

let lane_key =
  Domain.DLS.new_key (fun () ->
      if Domain.is_main_domain () then main_lane else fresh_lane ())

let lane () = Domain.DLS.get lane_key

let merge_mu = Mutex.create ()

(* Flushed worker lanes, newest flush first; each entry is
   (tid, events oldest first). *)
let merged : (int * event list) list ref = ref []

let merged_dropped = ref 0

let next_id = Atomic.make 0

(* Distributed trace ids must not collide across the processes of one
   serving fleet, so the per-process sequence is seeded from the pid and
   the wall clock rather than starting at zero. Kept in the positive
   62-bit range so the value survives the wire codec's i64 round-trip
   as an OCaml [int]. *)
let trace_seed =
  lazy
    ((Unix.getpid () * 0x9e3779b1)
     lxor int_of_float (Unix.gettimeofday () *. 1e6)
    land max_int)

let next_trace = Atomic.make 0

let fresh_trace_id () =
  let n = 1 + Atomic.fetch_and_add next_trace 1 in
  1 + ((Lazy.force trace_seed + (n * 0x100000001b3)) land (max_int lsr 1))

let alloc_id () = 1 + Atomic.fetch_and_add next_id 1

let enabled () = !on

let clear () =
  main_lane.buf <- [];
  main_lane.count <- 0;
  main_lane.dropped <- 0;
  main_lane.stack <- [];
  Mutex.lock merge_mu;
  merged := [];
  merged_dropped := 0;
  Mutex.unlock merge_mu;
  Atomic.set next_id 0

let start () =
  clear ();
  on := true

let stop () = on := false

let set_limit n = limit := Stdlib.max 1 n

let record ln ev =
  if ln.count >= !limit then ln.dropped <- ln.dropped + 1
  else begin
    ln.buf <- ev :: ln.buf;
    ln.count <- ln.count + 1
  end

let flush_lane () =
  let ln = lane () in
  if ln != main_lane && (ln.buf <> [] || ln.dropped > 0) then begin
    Mutex.lock merge_mu;
    if ln.buf <> [] then merged := (ln.tid, List.rev ln.buf) :: !merged;
    merged_dropped := !merged_dropped + ln.dropped;
    Mutex.unlock merge_mu;
    ln.buf <- [];
    ln.count <- 0;
    ln.dropped <- 0
  end

let dummy =
  {
    id = 0;
    trace = 0;
    name = "";
    cat = "";
    start_us = 0.;
    parent = None;
    depth = 0;
    attrs = [];
    live = false;
  }

let set_attr sp key v = if sp.live then sp.attrs <- (key, v) :: sp.attrs

let span_id sp = sp.id

(* [?trace]/[?parent] inject a remote context (a client span carried in
   a wire frame): they only apply to root spans — once a local parent is
   on the stack the child inherits its trace and links to it. A root
   span with no inherited or injected trace mints a fresh trace id, so
   every top-level operation is a joinable trace root. *)
let begin_span ?(cat = "bmf") ?(attrs = []) ?trace ?parent name =
  if not !on then dummy
  else begin
    let ln = lane () in
    let parent, depth, trace =
      match ln.stack with
      | [] ->
          let trace =
            match trace with
            | Some t when t > 0 -> t
            | _ -> fresh_trace_id ()
          in
          let parent = match parent with Some p when p > 0 -> Some p | _ -> None in
          (parent, 0, trace)
      | p :: _ -> (Some p.id, p.depth + 1, p.trace)
    in
    let sp =
      {
        id = alloc_id ();
        trace;
        name;
        cat;
        start_us = Clock.now_us ();
        parent;
        depth;
        attrs = List.rev attrs;
        live = true;
      }
    in
    ln.stack <- sp :: ln.stack;
    sp
  end

let end_span sp =
  if sp.live then begin
    let ln = lane () in
    let dur_us = Clock.now_us () -. sp.start_us in
    (match ln.stack with
    | top :: rest when top.id = sp.id -> ln.stack <- rest
    | _ -> ln.stack <- List.filter (fun s -> s.id <> sp.id) ln.stack);
    record ln
      (Complete
         {
           id = sp.id;
           trace = sp.trace;
           name = sp.name;
           cat = sp.cat;
           start_us = sp.start_us;
           dur_us;
           parent = sp.parent;
           depth = sp.depth;
           attrs = List.rev sp.attrs;
         })
  end

let with_span ?cat ?attrs ?trace ?parent name f =
  if not !on then f dummy
  else
    let sp = begin_span ?cat ?attrs ?trace ?parent name in
    Fun.protect ~finally:(fun () -> end_span sp) (fun () -> f sp)

let current () =
  if not !on then None
  else
    match (lane ()).stack with
    | [] -> None
    | sp :: _ -> Some (sp.trace, sp.id)

(* Retro-active span: the daemon measures phases (queue wait, a fused
   kernel call shared by a batch) whose extent is only known after the
   fact, and records them with explicit timestamps instead of a stack
   discipline. [?id] lets the caller pre-allocate the span id so that
   children recorded earlier can already point at it. *)
let complete ?(cat = "bmf") ?(attrs = []) ?(trace = 0) ?parent ?id
    ~start_us ~dur_us name =
  if !on then begin
    let id = match id with Some i -> i | None -> alloc_id () in
    let parent = match parent with Some p when p > 0 -> Some p | _ -> None in
    record (lane ())
      (Complete
         {
           id;
           trace;
           name;
           cat;
           start_us;
           dur_us;
           parent;
           depth = 0;
           attrs;
         })
  end

let instant ?(cat = "log") ?(attrs = []) name =
  if !on then
    record (lane ()) (Instant { name; cat; ts_us = Clock.now_us (); attrs })

let merged_lanes () =
  Mutex.lock merge_mu;
  let lanes = List.rev !merged in
  Mutex.unlock merge_mu;
  lanes

let events () =
  List.rev main_lane.buf
  @ List.concat_map (fun (_, evs) -> evs) (merged_lanes ())

let dropped () =
  let ln = lane () in
  let local = if ln == main_lane then 0 else ln.dropped in
  Mutex.lock merge_mu;
  let m = !merged_dropped in
  Mutex.unlock merge_mu;
  main_lane.dropped + m + local

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON. Hand-rolled printer: the library sits below
   everything else in the dependency order, so it cannot borrow a JSON
   module from upper layers. *)

let add_value buf = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else
        Json_string.add buf
          (if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf")
  | Str s -> Json_string.add buf s

let add_args buf attrs extra =
  Buffer.add_char buf '{';
  let first = ref true in
  let field k add =
    if !first then first := false else Buffer.add_char buf ',';
    Json_string.add buf k;
    Buffer.add_char buf ':';
    add ()
  in
  List.iter (fun (k, v) -> field k (fun () -> add_value buf v)) attrs;
  List.iter (fun (k, v) -> field k (fun () -> add_value buf v)) extra;
  Buffer.add_char buf '}'

let add_ts buf t = Buffer.add_string buf (Printf.sprintf "%.3f" t)

let add_event buf ~tid ev =
  match ev with
  | Complete { id; trace; name; cat; start_us; dur_us; parent; depth; attrs }
    ->
      Buffer.add_string buf "{\"name\":";
      Json_string.add buf name;
      Buffer.add_string buf ",\"cat\":";
      Json_string.add buf cat;
      Buffer.add_string buf ",\"ph\":\"X\",\"ts\":";
      add_ts buf start_us;
      Buffer.add_string buf ",\"dur\":";
      add_ts buf dur_us;
      Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" tid);
      let extra =
        [ ("span_id", Int id); ("depth", Int depth) ]
        @ (match parent with Some p -> [ ("parent_id", Int p) ] | None -> [])
        @ if trace <> 0 then [ ("trace_id", Int trace) ] else []
      in
      add_args buf attrs extra;
      Buffer.add_char buf '}'
  | Instant { name; cat; ts_us; attrs } ->
      Buffer.add_string buf "{\"name\":";
      Json_string.add buf name;
      Buffer.add_string buf ",\"cat\":";
      Json_string.add buf cat;
      Buffer.add_string buf ",\"ph\":\"i\",\"ts\":";
      add_ts buf ts_us;
      Buffer.add_string buf
        (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":" tid);
      add_args buf attrs [];
      Buffer.add_char buf '}'

let export_json () =
  let out = Buffer.create 4096 in
  Buffer.add_string out "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit ~tid ev =
    if !first then first := false else Buffer.add_char out ',';
    add_event out ~tid ev
  in
  List.iter (emit ~tid:main_lane.tid) (List.rev main_lane.buf);
  List.iter
    (fun (tid, evs) -> List.iter (emit ~tid) evs)
    (merged_lanes ());
  Buffer.add_string out "]}";
  Buffer.contents out

let write_file path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (export_json ()))
