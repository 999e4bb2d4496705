(* The repository's one JSON codec: every report, checkpoint, journal,
   corpus entry and benchmark document is written by [to_string] and read
   back by [parse].

   A deliberately tiny codec (the repo carries no JSON dependency) with one
   hard requirement: byte-determinism.  Objects render their keys in the
   order given, integers are plain OCaml ints, and floats render in the
   shortest form that reads back exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest of %.15g/%.16g/%.17g that reads back to the same float (any
   decimal of at most 15 significant digits survives a round trip, so %.15g
   is shortest whenever it round-trips).  An integral rendering keeps a
   ".0" so it parses back as a [Float], not an [Int]; JSON has no
   non-finite numbers, so those render as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s =
      List.find_map
        (fun p ->
          let s = Printf.sprintf "%.*g" p f in
          if float_of_string s = f then Some s else None)
        [ 15; 16; 17 ]
      |> Option.get
    in
    if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let to_string (j : t) =
  let buf = Buffer.create 1024 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit v)
        fields;
      Buffer.add_char buf '}'
  in
  emit j;
  Buffer.contents buf

(* --- Parsing ---------------------------------------------------------------

   Recursive-descent JSON parser.  A number with a fraction
   or an exponent is a [Float]; a bare integer literal is an [Int].  Total:
   every failure is an [Error] with an offset. *)

exception Parse_fail of int * string

let parse (src : string) : (t, string) result =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %C, found %C" c got)
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub src !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        let unescaped c =
          Buffer.add_char buf c;
          advance ();
          go ()
        in
        match peek () with
        | Some (('"' | '\\' | '/') as c) -> unescaped c
        | Some 'n' -> unescaped '\n'
        | Some 'r' -> unescaped '\r'
        | Some 't' -> unescaped '\t'
        | Some 'b' -> unescaped '\b'
        | Some 'f' -> unescaped '\012'
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub src !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "invalid \\u escape"
          in
          (* the emitter only escapes control characters, so a single byte
             suffices; anything else round-trips as '?' rather than failing *)
          Buffer.add_char buf (if code < 0x100 then Char.chr code else '?');
          pos := !pos + 4;
          go ()
        | _ -> fail "invalid escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits what =
      let from = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = from then fail what
    in
    if peek () = Some '-' then advance ();
    digits "invalid integer";
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits "invalid number (expected a digit after '.')"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      integral := false;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits "invalid number (expected an exponent digit)"
    | _ -> ());
    let text = String.sub src start (!pos - start) in
    if !integral then
      match int_of_string_opt text with Some v -> Int v | None -> fail "invalid integer"
    else Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) -> Error (Printf.sprintf "json parse error at offset %d: %s" at msg)

(* --- Accessors ------------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function Int i -> Some i | _ -> None

(* JSON has one number type: an integer literal is a float too. *)
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
