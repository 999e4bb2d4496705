(* The execution-backend registry: every way this repo turns a pipeline
   description + machine code into a {!Substrate.packed}.

   The oracle's configuration lists, Table 1, the bench harness and the CLI
   all build RMT backends through {!create}, so the set of executors the
   differential oracle diffs is decided here and nowhere else.

   {!available} is probed before {!create}: a backend with external
   requirements (the native substrate needs ocamlfind + natdynlink) reports
   a structured reason instead of failing mid-run, and callers degrade or
   refuse with that reason. *)

module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile

(* The tree-walking interpreter ({!Engine}), the closure compiler
   ({!Compiled}), and the emitted OCaml compiled out-of-process and
   Dynlinked ({!Native_substrate}). *)
type t = Interpreter | Closures | Native

let all = [ Interpreter; Closures; Native ]

(* The CLI spelling. *)
let name = function Interpreter -> "interpreter" | Closures -> "compiled" | Native -> "native"

let available = function Interpreter | Closures -> Ok () | Native -> Native_substrate.available ()

(* [build_with] is {!Native_substrate.create}'s; the in-process backends
   ignore it. *)
let create ?label ?init ?build_with t (desc : Ir.t) ~mc : (Substrate.packed, string) result =
  match t with
  | Interpreter -> Ok (Substrate.of_engine ?label ?init desc ~mc)
  | Closures -> Ok (Substrate.of_compiled ?label ?init (Compile.compile desc ~mc))
  | Native -> Native_substrate.create ?label ?init ?build_with desc ~mc
