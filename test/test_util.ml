(* Unit and property tests for the substrate utilities. *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng
module Hashing = Druzhba_util.Hashing
module Scanner = Druzhba_util.Scanner
module Json = Druzhba_util.Json

let check_int = Alcotest.(check int)

(* --- Value ----------------------------------------------------------------- *)

let test_mask () =
  check_int "mask 8 256" 0 (Value.mask 8 256);
  check_int "mask 8 255" 255 (Value.mask 8 255);
  check_int "mask 4 100" 4 (Value.mask 4 100);
  check_int "mask 1 3" 1 (Value.mask 1 3);
  check_int "mask 32 id" 123456789 (Value.mask 32 123456789)

let test_wraparound () =
  check_int "add wraps" 0 (Value.add 8 255 1);
  check_int "sub wraps" 255 (Value.sub 8 0 1);
  check_int "mul wraps" 0 (Value.mul 4 4 4);
  check_int "neg" 255 (Value.neg 8 1);
  check_int "neg zero" 0 (Value.neg 8 0)

let test_div_by_zero () =
  check_int "div by zero" 0 (Value.div 8 42 0);
  check_int "mod by zero" 0 (Value.rem 8 42 0);
  check_int "div" 5 (Value.div 8 10 2);
  check_int "mod" 1 (Value.rem 8 10 3)

let test_booleans () =
  check_int "eq true" 1 (Value.eq 3 3);
  check_int "eq false" 0 (Value.eq 3 4);
  check_int "ge" 1 (Value.ge 4 4);
  check_int "lt" 1 (Value.lt 3 4);
  check_int "not 0" 1 (Value.logical_not 0);
  check_int "not 7" 0 (Value.logical_not 7);
  check_int "and" 1 (Value.logical_and 2 3);
  check_int "and false" 0 (Value.logical_and 2 0);
  check_int "or" 1 (Value.logical_or 0 9);
  check_int "or false" 0 (Value.logical_or 0 0)

let test_width_validation () =
  Alcotest.check_raises "width 0" (Invalid_argument "Value.width: 0 not in 1..62") (fun () ->
      ignore (Value.width 0));
  Alcotest.check_raises "width 63" (Invalid_argument "Value.width: 63 not in 1..62") (fun () ->
      ignore (Value.width 63));
  check_int "width 32 ok" 32 (Value.width 32)

let prop_mask_idempotent =
  QCheck.Test.make ~name:"mask is idempotent" ~count:500
    QCheck.(pair (int_range 1 62) (int_bound max_int))
    (fun (bits, v) -> Value.mask bits (Value.mask bits v) = Value.mask bits v)

let prop_add_commutes =
  QCheck.Test.make ~name:"masked add commutes" ~count:500
    QCheck.(triple (int_range 1 62) (int_bound max_int) (int_bound max_int))
    (fun (bits, a, b) -> Value.add bits a b = Value.add bits b a)

let prop_sub_add_roundtrip =
  QCheck.Test.make ~name:"(a + b) - b = a (mod 2^bits)" ~count:500
    QCheck.(triple (int_range 1 62) (int_bound max_int) (int_bound max_int))
    (fun (bits, a, b) -> Value.sub bits (Value.add bits a b) b = Value.mask bits a)

let prop_comparisons_are_boolean =
  QCheck.Test.make ~name:"comparisons return 0/1" ~count:500
    QCheck.(pair (int_bound max_int) (int_bound max_int))
    (fun (a, b) ->
      List.for_all
        (fun v -> v = 0 || v = 1)
        [ Value.eq a b; Value.neq a b; Value.lt a b; Value.gt a b; Value.le a b; Value.ge a b ])

(* --- Prng ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let sa = List.init 10 (fun _ -> Prng.next_int64 a) in
  let sb = List.init 10 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "different seeds differ" false (sa = sb)

let test_prng_copy () =
  let a = Prng.create 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Prng.next_int64 a) (Prng.next_int64 b)

let prop_prng_bits_in_range =
  QCheck.Test.make ~name:"Prng.bits stays in range" ~count:300
    QCheck.(pair (int_range 1 62) small_nat)
    (fun (bits, seed) ->
      let p = Prng.create seed in
      let v = Prng.bits p bits in
      v >= 0 && v <= Value.max_value bits)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int stays in range" ~count:300
    QCheck.(pair (int_range 1 10000) small_nat)
    (fun (bound, seed) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let test_prng_rough_uniformity () =
  (* Sanity check, not a statistical test: both halves of an 8-bit range
     should be hit a reasonable number of times. *)
  let p = Prng.create 3 in
  let low = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bits p 8 < 128 then incr low
  done;
  Alcotest.(check bool) "roughly balanced" true (!low > n / 3 && !low < 2 * n / 3)

(* --- Hashing ---------------------------------------------------------------- *)

let test_hash_determinism () =
  check_int "hash1" (Hashing.hash1 ~bits:16 99) (Hashing.hash1 ~bits:16 99);
  check_int "hash2" (Hashing.hash2 ~bits:16 1 2) (Hashing.hash2 ~bits:16 1 2);
  check_int "hash3" (Hashing.hash3 ~bits:16 1 2 3) (Hashing.hash3 ~bits:16 1 2 3)

let test_hash_width () =
  for x = 0 to 100 do
    let h = Hashing.hash1 ~bits:5 x in
    Alcotest.(check bool) "within width" true (h >= 0 && h < 32)
  done

let test_hash_indexed_independent () =
  let collisions = ref 0 in
  for x = 0 to 200 do
    if Hashing.indexed ~bits:16 0 x = Hashing.indexed ~bits:16 1 x then incr collisions
  done;
  Alcotest.(check bool) "indexed hashes differ" true (!collisions < 10)

(* --- Scanner ---------------------------------------------------------------- *)

let test_scanner_idents_and_ints () =
  let sc = Scanner.create "  foo_1  42 " in
  Scanner.skip_trivia sc;
  Alcotest.(check string) "ident" "foo_1" (Scanner.scan_ident sc);
  Scanner.skip_trivia sc;
  check_int "int" 42 (Scanner.scan_int sc);
  Scanner.skip_trivia sc;
  Alcotest.(check bool) "at end" true (Scanner.at_end sc)

let test_scanner_comments () =
  let sc = Scanner.create "# line comment\n// another\nx" in
  Scanner.skip_trivia sc;
  Alcotest.(check string) "ident after comments" "x" (Scanner.scan_ident sc)

let test_scanner_positions () =
  let sc = Scanner.create "a\nbb\nccc" in
  Scanner.skip_trivia sc;
  ignore (Scanner.scan_ident sc);
  Scanner.skip_trivia sc;
  let pos = Scanner.position sc in
  check_int "line" 2 pos.Scanner.line;
  check_int "column" 1 pos.Scanner.column

let test_scanner_try_string () =
  let sc = Scanner.create "==x" in
  Alcotest.(check bool) "matches" true (Scanner.try_string sc "==");
  Alcotest.(check bool) "no match leaves state" false (Scanner.try_string sc "==");
  Alcotest.(check string) "rest" "x" (Scanner.scan_ident sc)


(* Campaigns key every trial on [derive master index]; the edge indices and
   collision behaviour are load-bearing for checkpoint resume. *)
let test_derive_edge_indices () =
  let a = Prng.derive 0xD52ba 0 in
  Alcotest.(check bool) "index 0 is non-negative" true (a >= 0);
  Alcotest.(check int) "index 0 is stable" a (Prng.derive 0xD52ba 0);
  Alcotest.(check bool) "index 0 <> index 1" true (a <> Prng.derive 0xD52ba 1);
  let m = Prng.derive 0xD52ba max_int in
  Alcotest.(check bool) "max_int index accepted" true (m >= 0);
  Alcotest.(check int) "max_int index is stable" m (Prng.derive 0xD52ba max_int);
  match Prng.derive 0xD52ba (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index accepted"

let test_derive_adjacent_no_collisions () =
  let seen = Hashtbl.create 4096 in
  let collisions = ref 0 in
  for i = 0 to 9_999 do
    let s = Prng.derive 42 i in
    if Hashtbl.mem seen s then incr collisions else Hashtbl.add seen s ()
  done;
  Alcotest.(check int) "10k adjacent trials, no seed collisions" 0 !collisions

(* --- Json -------------------------------------------------------------------- *)

(* Strings and keys are arbitrary bytes (control characters, quotes,
   backslashes, bytes >= 0x80); ints include the extremes; floats are any
   finite value, integral ones included. *)
let gen_json : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let int = frequency [ (1, return min_int); (1, return max_int); (6, int) ] in
  let finite =
    frequency
      [
        (4, map (fun f -> if Float.is_finite f then f else 0.5) float);
        (1, map float_of_int small_signed_int);
        (1, return (-0.));
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
               (1, map (fun kvs -> Json.Obj kvs) (list_size (int_bound 4) (pair str (self (n / 4)))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string j) = Ok j" ~count:1000
    (QCheck.make ~print:Json.to_string gen_json)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

let test_json_non_finite () =
  List.iter
    (fun f -> Alcotest.(check string) (string_of_float f) "null" (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ]

let test_json_float_repr () =
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (Json.to_string (Json.Float f)))
    [ (2., "2.0"); (-0., "-0.0"); (0.1, "0.1"); (1714.6, "1714.6"); (1e300, "1e+300") ]

let test_json_escapes () =
  Alcotest.(check string) "emitter escapes"
    {|{"k\"":"a\"\\\n\r\t\u0001\u001f/é"}|}
    (Json.to_string (Json.Obj [ ("k\"", Json.Str "a\"\\\n\r\t\001\031/\xc3\xa9") ]));
  Alcotest.(check bool) "all JSON escapes decode" true
    (Json.parse {|"\"\\\/\b\f\n\r\t\u0041"|} = Ok (Json.Str "\"\\/\b\012\n\r\tA"))

let test_json_numbers () =
  let ok text expect =
    Alcotest.(check bool) text true (Json.parse text = Ok expect)
  in
  ok "-3" (Json.Int (-3));
  ok "1.5" (Json.Float 1.5);
  ok "-2e-3" (Json.Float (-2e-3));
  ok "1E+2" (Json.Float 100.);
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" text)
    [ ".5"; "1."; "+1"; "1e"; "-" ]

let test_json_error_text () =
  List.iter
    (fun (text, msg) ->
      match Json.parse text with
      | Error e -> Alcotest.(check string) text msg e
      | Ok _ -> Alcotest.failf "%S parsed" text)
    [
      ("[1,", "json parse error at offset 3: unexpected end of input");
      ({|{"a" 1}|}, "json parse error at offset 5: expected ':', found '1'");
      ("1 x", "json parse error at offset 2: trailing garbage");
      ("1.", "json parse error at offset 2: invalid number (expected a digit after '.')");
    ]

let qsuite = List.map QCheck_alcotest.to_alcotest


let () =
  Alcotest.run "util"
    [
      ( "value",
        [
          Alcotest.test_case "masking" `Quick test_mask;
          Alcotest.test_case "wraparound" `Quick test_wraparound;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "booleans" `Quick test_booleans;
          Alcotest.test_case "width validation" `Quick test_width_validation;
        ]
        @ qsuite
            [
              prop_mask_idempotent;
              prop_add_commutes;
              prop_sub_add_roundtrip;
              prop_comparisons_are_boolean;
            ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "rough uniformity" `Quick test_prng_rough_uniformity;
          Alcotest.test_case "derive edge indices" `Quick test_derive_edge_indices;
          Alcotest.test_case "derive adjacent trials collide never" `Quick
            test_derive_adjacent_no_collisions;
        ]
        @ qsuite [ prop_prng_bits_in_range; prop_prng_int_in_range ] );
      ( "hashing",
        [
          Alcotest.test_case "determinism" `Quick test_hash_determinism;
          Alcotest.test_case "width" `Quick test_hash_width;
          Alcotest.test_case "indexed independence" `Quick test_hash_indexed_independent;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "idents and ints" `Quick test_scanner_idents_and_ints;
          Alcotest.test_case "comments" `Quick test_scanner_comments;
          Alcotest.test_case "positions" `Quick test_scanner_positions;
          Alcotest.test_case "try_string" `Quick test_scanner_try_string;
        ] );
      ( "json",
        [
          Alcotest.test_case "non-finite floats render as null" `Quick test_json_non_finite;
          Alcotest.test_case "float rendering" `Quick test_json_float_repr;
          Alcotest.test_case "string escapes" `Quick test_json_escapes;
          Alcotest.test_case "number grammar" `Quick test_json_numbers;
          Alcotest.test_case "error text" `Quick test_json_error_text;
        ]
        @ qsuite [ prop_json_roundtrip ] );
    ]
