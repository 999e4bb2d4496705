(* Reader for the machine-readable benchmark reports (BENCH_pr*.json).

   The bench harness emits a "druzhba-bench" document per PR: schema /1
   (PR 5, sequential tick path), /2 (PR 8, batched tick path; adds
   "batch", "batch_sweep", "probe_overhead" and per-level batch-agreement
   bits) and /3 (PR 10; adds per-level "native_*" fields for the
   Dynlinked native-codegen substrate, or a top-level
   "native_unavailable" reason when the build toolchain is absent) and /4
   (BENCH_pr12.json; without the closure vectorizer the closure
   "ns_per_phv" is the sequential tick loop again, "seq_ns_per_phv" and
   "batch_sweep" are dropped, and "batch_agree" covers the interpreter's
   lane driver — and, in files written before native ABI v3, the native
   one).  This module parses any of those versions into
   one row shape so the perf-trajectory tooling and the tests can diff
   reports across PRs without caring which harness wrote them.  Parsing is
   {!Druzhba_util.Json}'s; this module is only the schema view. *)

module Json = Druzhba_util.Json

let float_field key j = Option.bind (Json.member key j) Json.to_float
let string_field key j = Option.bind (Json.member key j) Json.to_str
let bool_field key j = Option.bind (Json.member key j) Json.to_bool

(* --- Bench-report view -------------------------------------------------------- *)

type level_row = {
  br_program : string;
  br_level : string;
  br_ns_per_phv : float;
  br_seq_ns_per_phv : float option; (* schemas /2 and /3 *)
  br_agree : bool;
  br_native_ns_per_phv : float option; (* schema /3, toolchain present *)
  br_native_agree : bool option; (* schema /3, toolchain present *)
}

type t = {
  br_schema : string;
  br_pr : int;
  br_batch : int option; (* schema /2 onwards *)
  br_native_unavailable : string option; (* schema /3, toolchain absent *)
  br_rows : level_row list; (* program-major, level order as written *)
}

let supported_schemas =
  [ "druzhba-bench/1"; "druzhba-bench/2"; "druzhba-bench/3"; "druzhba-bench/4" ]

let of_json (j : Json.t) : (t, string) result =
  match string_field "schema" j with
  | None -> Error "missing \"schema\""
  | Some schema when not (List.mem schema supported_schemas) ->
    Error (Printf.sprintf "unsupported schema %S" schema)
  | Some schema -> (
    let pr = match float_field "pr" j with Some f -> int_of_float f | None -> 0 in
    let batch = Option.map int_of_float (float_field "batch" j) in
    match Option.bind (Json.member "programs" j) Json.to_list with
    | None -> Error "missing \"programs\" array"
    | Some programs -> (
      let row_of_level program lj =
        match
          (string_field "level" lj, float_field "ns_per_phv" lj,
           bool_field "engine_compiled_agree" lj)
        with
        | Some level, Some ns, Some agree ->
          Some
            {
              br_program = program;
              br_level = level;
              br_ns_per_phv = ns;
              br_seq_ns_per_phv = float_field "seq_ns_per_phv" lj;
              br_agree = agree;
              br_native_ns_per_phv = float_field "native_ns_per_phv" lj;
              br_native_agree = bool_field "native_agree" lj;
            }
        | _ -> None
      in
      let rows =
        List.concat_map
          (fun pj ->
            match (string_field "program" pj, Option.bind (Json.member "levels" pj) Json.to_list) with
            | Some program, Some levels -> List.filter_map (row_of_level program) levels
            | _ -> [])
          programs
      in
      match rows with
      | [] -> Error "no level rows found under \"programs\""
      | _ ->
        Ok
          {
            br_schema = schema;
            br_pr = pr;
            br_batch = batch;
            br_native_unavailable = string_field "native_unavailable" j;
            br_rows = rows;
          }))

let of_string s = Result.bind (Json.parse s) of_json

let of_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let find_row t ~program ~level =
  List.find_opt (fun r -> r.br_program = program && r.br_level = level) t.br_rows

(* Per-(program, level) speedup of [current] over [baseline]:
   baseline ns/PHV divided by current ns/PHV (higher is faster). *)
let speedups ~(baseline : t) ~(current : t) : (string * string * float) list =
  List.filter_map
    (fun r ->
      match find_row baseline ~program:r.br_program ~level:r.br_level with
      | Some b when r.br_ns_per_phv > 0. ->
        Some (r.br_program, r.br_level, b.br_ns_per_phv /. r.br_ns_per_phv)
      | _ -> None)
    current.br_rows

(* Within one schema /3 or /4 report: per-(program, level) speedup of the
   Dynlinked native substrate over the closure path (batched in /3,
   sequential in /4) — closure ns/PHV divided by native ns/PHV (higher means native is faster).
   Rows without native measurements (older schemas, or a report written
   on a toolchain-less machine) are skipped, so the join is empty when
   [br_native_unavailable] is set. *)
let native_speedups (t : t) : (string * string * float) list =
  List.filter_map
    (fun r ->
      match r.br_native_ns_per_phv with
      | Some nns when nns > 0. -> Some (r.br_program, r.br_level, r.br_ns_per_phv /. nns)
      | _ -> None)
    t.br_rows
