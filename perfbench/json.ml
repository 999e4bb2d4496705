(* Minimal JSON for the benchmark's result line: an emitter that keeps every
   digit of a float and a parser for reading it back.  The benchmark keeps
   its own codec so that it depends on no internal module of the program it
   measures. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
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
    s

(* [%.17g] round-trips every finite double; a trailing ".0" keeps an
   integral float distinguishable from an [Int] when read back. *)
let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Json.float_repr: non-finite number";
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_string j =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; emit v) items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          emit (Str k);
          Buffer.add_char buf ':';
          emit v)
        fields;
      Buffer.add_char buf '}'
  in
  emit j;
  Buffer.contents buf

exception Syntax of int

let parse src : (t, string) result =
  let n = String.length src and pos = ref 0 in
  let fail () = raise (Syntax !pos) in
  let peek () = if !pos < n then src.[!pos] else '\000' in
  let rec skip () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; skip () | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail () in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub src !pos l = word then (pos := !pos + l; v) else fail ()
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail ();
          let code = int_of_string_opt ("0x" ^ String.sub src !pos 4) in
          pos := !pos + 4;
          (match code with
          | Some c -> Buffer.add_utf_8_uchar buf (Uchar.of_int c)
          | None -> fail ())
        | _ -> fail ());
        go ()
      | '\000' when !pos >= n -> fail ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num c = match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && is_num src.[!pos] do incr pos done;
    let s = String.sub src start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with Some f -> Float f | None -> fail ()
    else match int_of_string_opt s with Some i -> Int i | None -> fail ()
  in
  let rec value () =
    skip ();
    let v =
      match peek () with
      | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string_lit () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail ()
          in
          fields []
      | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; List [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail ()
          in
          items []
      | '"' -> Str (string_lit ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    skip ();
    v
  in
  match value () with
  | v -> if !pos = n then Ok v else Error (Printf.sprintf "trailing input at byte %d" !pos)
  | exception Syntax at -> Error (Printf.sprintf "malformed JSON at byte %d" at)

(* The benchmark's result line: exactly the keys [correct], [attempted],
   [failed] and [metrics], each metric a [{value, unit}] object. *)
let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj (List.map (fun (name, v, unit) -> (name, Obj [ ("value", Float v); ("unit", Str unit) ])) metrics) );
    ]
