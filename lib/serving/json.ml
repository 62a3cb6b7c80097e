type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Canonical printing: fixed field order (the caller's), no whitespace,
   floats via %.17g so every IEEE double round-trips exactly. The
   printer is a pure function of the value. *)

let number_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> Obs.Json_string.add buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Obs.Json_string.add buf name;
          Buffer.add_char buf ':';
          write buf value)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser. Accepts standard JSON; numbers are parsed
   with [float_of_string], which reads back everything the printer
   emits. *)

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let parse_literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'u' ->
            if st.pos + 4 >= String.length st.src then
              fail st "truncated \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail st "bad \\u escape"
            in
            (* our printer only emits \u for control characters *)
            if code > 0xff then fail st "unsupported \\u escape"
            else Buffer.add_char buf (Char.chr code);
            st.pos <- st.pos + 4
        | _ -> fail st "bad escape");
        advance st;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then fail st "expected number";
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let name = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((name, value) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((name, value) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec items acc =
          let value = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (value :: acc)
          | Some ']' ->
              advance st;
              List.rev (value :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | value ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage"
      else Ok value
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors, for readers of a parsed document. *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let of_float f =
  if Float.is_finite f then Num f
  else Str (if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf")

let to_float = function
  | Num f -> Some f
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_arr = function Arr items -> Some items | _ -> None
