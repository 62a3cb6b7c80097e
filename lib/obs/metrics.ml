type payload =
  | Counter of { mutable total : float }
  | Gauge of { mutable value : float; mutable seen : bool }
  | Hist of {
      bounds : float array; (* strictly increasing upper bounds *)
      counts : int array; (* length = Array.length bounds + 1; last = +Inf *)
      mutable sum : float;
      mutable count : int;
    }

type metric = {
  name : string;
  labels : (string * string) list; (* sorted by label name *)
  help : string;
  payload : payload;
}

type counter = metric

type gauge = metric

type histogram = metric

let on = ref false

let enable () = on := true

let disable () = on := false

let enabled () = !on

(* One lock serializes every mutation: recording can come from worker
   domains (the Domains pool runs instrumented kernels in parallel). The
   disabled path never touches it, so the default cost stays a single
   load-and-branch. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let valid_name name =
  String.length name > 0
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

(* Map an arbitrary string onto the Prometheus metric-name charset:
   every invalid byte becomes '_', and a leading digit gets an
   underscore prefix. Empty input becomes "_". *)
let sanitize_name s =
  if s = "" then "_"
  else begin
    let b = Bytes.of_string s in
    Bytes.iteri
      (fun i c ->
        match c with
        (* digits are kept everywhere; a leading one is prefixed below *)
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' | '0' .. '9' -> ignore i
        | _ -> Bytes.set b i '_')
      b;
    let s' = Bytes.to_string b in
    match s'.[0] with '0' .. '9' -> "_" ^ s' | _ -> s'
  end

let valid_label_name name =
  (* like metric names but without ':' (reserved for exporters) *)
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name

(* Text-format 0.0.4 label-value escaping: backslash, double quote and
   newline must be escaped; everything else passes through verbatim. *)
let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             ls)
      ^ "}"

(* Registry: series lookup by (name + canonical labels), family kinds
   for type-mismatch detection, and insertion order for stable
   exposition. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let family_kind : (string, string) Hashtbl.t = Hashtbl.create 64

let order : metric list ref = ref [] (* newest first *)

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let series_key name labels = name ^ render_labels labels

let canonical_labels name labels =
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as tl) -> if a = b then Some a else dup tl
    | _ -> None
  in
  (match dup labels with
  | Some k ->
      invalid_arg (Printf.sprintf "Metrics: %s: duplicate label %S" name k)
  | None -> ());
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: %s: invalid label name %S" name k))
    labels;
  labels

let register name labels help payload =
  let labels = canonical_labels name labels in
  (match payload with
  | Hist _ when List.mem_assoc "le" labels ->
      invalid_arg
        (Printf.sprintf "Metrics: %s: label \"le\" is reserved on histograms"
           name)
  | _ -> ());
  locked @@ fun () ->
  let key = series_key name labels in
  match Hashtbl.find_opt registry key with
  | Some m ->
      if kind_label m.payload <> kind_label payload then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_label m.payload));
      m
  | None ->
      if not (valid_name name) then
        invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
      (match Hashtbl.find_opt family_kind name with
      | Some k when k <> kind_label payload ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name k)
      | Some _ -> ()
      | None -> Hashtbl.add family_kind name (kind_label payload));
      let m = { name; labels; help; payload } in
      Hashtbl.add registry key m;
      order := m :: !order;
      m

let counter ?(help = "") ?(labels = []) name =
  register name labels help (Counter { total = 0. })

let gauge ?(help = "") ?(labels = []) name =
  register name labels help (Gauge { value = 0.; seen = false })

let latency_buckets =
  [|
    1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3;
    5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.;
  |]

let histogram ?(help = "") ?(labels = []) ?(buckets = latency_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Metrics.histogram: non-finite bucket bound";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  register name labels help
    (Hist
       {
         bounds = Array.copy buckets;
         counts = Array.make (Array.length buckets + 1) 0;
         sum = 0.;
         count = 0;
       })

let inc ?(by = 1.) m =
  if !on then
    locked @@ fun () ->
    match m.payload with Counter c -> c.total <- c.total +. by | _ -> ()

let set m v =
  if !on then
    locked @@ fun () ->
    match m.payload with
    | Gauge g ->
        g.value <- v;
        g.seen <- true
    | _ -> ()

let observe m v =
  if !on then
    locked @@ fun () ->
    match m.payload with
    | Hist h ->
        let n = Array.length h.bounds in
        let i = ref 0 in
        while !i < n && v > h.bounds.(!i) do
          incr i
        done;
        h.counts.(!i) <- h.counts.(!i) + 1;
        h.sum <- h.sum +. v;
        h.count <- h.count + 1
    | _ -> ()

let time m f =
  if not !on then f ()
  else begin
    let t0 = Clock.now_s () in
    Fun.protect ~finally:(fun () -> observe m (Clock.now_s () -. t0)) f
  end

let counter_value m = match m.payload with Counter c -> c.total | _ -> 0.

let gauge_value m = match m.payload with Gauge g -> g.value | _ -> 0.

let gauge_is_set m = match m.payload with Gauge g -> g.seen | _ -> false

let histogram_buckets m =
  match m.payload with
  | Hist h ->
      Array.init
        (Array.length h.counts)
        (fun i ->
          let bound =
            if i < Array.length h.bounds then h.bounds.(i) else infinity
          in
          (bound, h.counts.(i)))
  | _ -> [||]

let histogram_sum m = match m.payload with Hist h -> h.sum | _ -> 0.

let histogram_count m = match m.payload with Hist h -> h.count | _ -> 0

let find ?(labels = []) name =
  Hashtbl.find_opt registry (series_key name (canonical_labels name labels))

let find_gauge ?labels name =
  match find ?labels name with
  | Some ({ payload = Gauge _; _ } as m) -> Some m
  | _ -> None

let find_counter ?labels name =
  match find ?labels name with
  | Some ({ payload = Counter _; _ } as m) -> Some m
  | _ -> None

let family ?(prefix = false) name =
  let matches m =
    m.name = name
    || prefix
       && String.length m.name > String.length name
       && String.sub m.name 0 (String.length name) = name
  in
  List.filter matches (List.rev !order)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m.payload with
      | Counter c -> c.total <- 0.
      | Gauge g ->
          g.value <- 0.;
          g.seen <- false
      | Hist h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.;
          h.count <- 0)
    registry

let all () = List.rev !order

(* ------------------------------------------------------------------ *)
(* Exposition. *)

let fmt_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* HELP text: the spec only requires escaping backslash and newline. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* All series of a family must form one contiguous block under a single
   HELP/TYPE header, so the exposition walks families in
   first-registration order and series within a family in registration
   order. *)
let to_prometheus () =
  let series = all () in
  let families =
    List.fold_left
      (fun acc m -> if List.mem m.name acc then acc else m.name :: acc)
      [] series
    |> List.rev
  in
  let buf = Buffer.create 2048 in
  List.iter
    (fun fam ->
      let members = List.filter (fun m -> m.name = fam) series in
      let first = List.hd members in
      let help =
        match List.find_opt (fun m -> m.help <> "") members with
        | Some m -> m.help
        | None -> ""
      in
      if help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fam (escape_help help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" fam (kind_label first.payload));
      List.iter
        (fun m ->
          match m.payload with
          | Counter c ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" m.name (render_labels m.labels)
                   (fmt_float c.total))
          | Gauge g ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" m.name (render_labels m.labels)
                   (fmt_float g.value))
          | Hist h ->
              let bucket_labels le =
                render_labels (m.labels @ [ ("le", le) ])
              in
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.counts.(i);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" m.name
                       (bucket_labels (fmt_float bound)) !cum))
                h.bounds;
              cum := !cum + h.counts.(Array.length h.bounds);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name
                   (bucket_labels "+Inf") !cum);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" m.name
                   (render_labels m.labels) (fmt_float h.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" m.name
                   (render_labels m.labels) h.count))
        members)
    families;
  Buffer.contents buf

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else
    Printf.sprintf "\"%s\""
      (if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf")

let to_json () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"type\":\"%s\","
           (Json_string.quote m.name)
           (kind_label m.payload));
      if m.labels <> [] then begin
        Buffer.add_string buf "\"labels\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "%s:%s" (Json_string.quote k)
                 (Json_string.quote v)))
          m.labels;
        Buffer.add_string buf "},"
      end;
      (match m.payload with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "\"value\":%s" (json_num c.total))
      | Gauge g ->
          Buffer.add_string buf (Printf.sprintf "\"value\":%s" (json_num g.value))
      | Hist h ->
          Buffer.add_string buf "\"buckets\":[";
          Array.iteri
            (fun j bound ->
              if j > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "{\"le\":%s,\"count\":%d}"
                   (if j < Array.length h.bounds then json_num bound
                    else "\"inf\"")
                   h.counts.(j)))
            (Array.append h.bounds [| infinity |]);
          Buffer.add_string buf
            (Printf.sprintf "],\"sum\":%s,\"count\":%d" (json_num h.sum)
               h.count));
      Buffer.add_char buf '}')
    (all ());
  Buffer.add_string buf "]}";
  Buffer.contents buf
