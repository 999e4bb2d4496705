(* The campaign's corpus of coverage-novel programs.

   Coverage mode keeps every trial whose coverage contained at least one
   feature the campaign had not seen ({!Coverage.novel}), and later trials
   mutate corpus members structurally instead of always sampling fresh:

   - {b reverse neutralization} (RMT): {!Shrink} minimizes counterexamples
     by driving machine-code pairs to 0; run in reverse, a zero-valued pair
     is promoted to an in-domain non-zero value — waking up a primitive the
     original draw left inert.
   - {b boundary nudging} (RMT): an immediate pair is moved to a boundary
     value of its interval ([Dataflow.full bits] = [0, 2^bits - 1]): 0, 1,
     all-ones, all-ones - 1, the top bit, or one off its current value.
     Random immediates are drawn at most 8 bits wide
     ({!Druzhba_fuzz.Fuzz.random_mc}), so the wide-datapath boundary values
     are reachable {e only} through this mutation — the lever behind the
     "coverage finds it, random provably misses it" sabotage gate.
   - {b DAG grow / entry split} (dRMT): extend the table chain by one table
     (existing entries stay valid — the new program is a superset), or
     split a table's entry population by installing a sibling entry with a
     fresh exact pattern.

   Mutations draw only from the trial's derived PRNG and validate by
   construction (selector values stay in-domain; immediates are width
   values), so {!Machine_code.validate} always passes on a mutant — a
   property pinned by QCheck.

   Determinism: the store is append-only and the campaign admits entries at
   block boundaries in trial-index order, so entry ids, parent links and
   the on-disk corpus are byte-identical across [--jobs].

   On disk ([--corpus DIR]):
   - [DIR/corpus.json]   — manifest (schema druzhba-corpus/1): master seed,
     entry index, the druzhba-coverage/1 section and the full feature list
   - [DIR/entry-NNNNN.json] — one per corpus entry (schema
     druzhba-corpus-entry/1): origin, trial, and enough material to rebuild
     the program (generation parameters + machine code, or table count +
     processors + entries), since descriptions and dRMT programs are pure
     functions of their parameters. *)

module Prng = Druzhba_util.Prng
module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Entries = Druzhba_drmt.Entries

(* --- Materials ----------------------------------------------------------------- *)

type material =
  | Rmt_material of {
      depth : int;
      width : int;
      bits : int;
      stateful : string;
      stateless : string;
      mc : Machine_code.t;
    }
  | Drmt_material of { tables : int; processors : int; entries : Entries.entry list }

type origin = Fresh | Mutated of { parent : int; op : string }

type entry = {
  e_id : int; (* dense, in admission (= trial index) order *)
  e_trial : int;
  e_origin : origin;
  e_material : material;
  e_novel : int; (* features this entry was first to reach *)
}

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }
let size t = t.count
let entries t = List.rev t.rev_entries

let add t ~trial ~origin ~material ~novel =
  let e = { e_id = t.count; e_trial = trial; e_origin = origin; e_material = material; e_novel = novel } in
  t.count <- t.count + 1;
  t.rev_entries <- e :: t.rev_entries;
  e

(* (entries, fresh, mutated) *)
let stats t =
  let fresh =
    List.length (List.filter (fun e -> e.e_origin = Fresh) t.rev_entries)
  in
  (t.count, fresh, t.count - fresh)

(* The immutable view a block of parallel trials mutates from; refreshed by
   the campaign only at block boundaries. *)
let snapshot t : entry array = Array.of_list (entries t)

let is_rmt e = match e.e_material with Rmt_material _ -> true | Drmt_material _ -> false

(* --- RMT mutations -------------------------------------------------------------- *)

let boundary_values bits v =
  let top = Value.max_value bits in
  [ 0; 1; top; top - 1; 1 lsl (bits - 1); Value.mask bits (v + 1); Value.mask bits (v - 1) ]

(* Shrink's pair neutralization in reverse: promote one zero-valued pair to
   a non-zero in-domain value. *)
let reverse_neutralize prng ~(domains : (string * Ir.control_domain) list) ~bits mc :
    (string * Machine_code.t) option =
  let zeros =
    List.filter (fun (name, _) -> Machine_code.find_opt mc name = Some 0) domains
  in
  match zeros with
  | [] -> None
  | _ -> (
    let name, domain = List.nth zeros (Prng.int prng (List.length zeros)) in
    let v =
      match domain with
      | Ir.Selector n when n > 1 -> 1 + Prng.int prng (n - 1)
      | Ir.Selector _ -> 0 (* domain [0, 1): nothing non-zero to promote *)
      | Ir.Immediate ->
        let candidates =
          List.sort_uniq compare
            (List.filter (fun x -> x <> 0) (boundary_values bits 0))
        in
        List.nth candidates (Prng.int prng (List.length candidates))
    in
    if v = 0 then None
    else begin
      let mc' = Machine_code.copy mc in
      Machine_code.set mc' name v;
      Some ("reverse_neutralize", mc')
    end)

(* Nudge one immediate pair to a boundary value of the known-bits/interval
   domain (distinct from its current value). *)
let boundary_nudge prng ~(domains : (string * Ir.control_domain) list) ~bits mc :
    (string * Machine_code.t) option =
  let imms =
    List.filter
      (fun (name, domain) -> domain = Ir.Immediate && Machine_code.find_opt mc name <> None)
      domains
  in
  match imms with
  | [] -> None
  | _ -> (
    let name, _ = List.nth imms (Prng.int prng (List.length imms)) in
    let v = Machine_code.find mc name in
    let candidates =
      List.sort_uniq compare (List.filter (fun x -> x <> v) (boundary_values bits v))
    in
    match candidates with
    | [] -> None
    | _ ->
      let v' = List.nth candidates (Prng.int prng (List.length candidates)) in
      let mc' = Machine_code.copy mc in
      Machine_code.set mc' name v';
      Some ("boundary_nudge", mc'))

(* One RMT mutation draw: pick an operator, fall back to the other when the
   pick does not apply (e.g. no zero-valued pair to reverse). *)
let mutate_rmt prng ~domains ~bits mc : (string * Machine_code.t) option =
  if Prng.bool prng then
    match reverse_neutralize prng ~domains ~bits mc with
    | Some _ as r -> r
    | None -> boundary_nudge prng ~domains ~bits mc
  else
    match boundary_nudge prng ~domains ~bits mc with
    | Some _ as r -> r
    | None -> reverse_neutralize prng ~domains ~bits mc

(* --- dRMT mutations --------------------------------------------------------------

   The generated dRMT program is a pure function of its table count (a
   chain t_0 -> ... -> t_{k-1}), so growing the DAG = bumping the count;
   entries for the old tables remain valid in the grown program.  The cap
   mirrors the trial generator's feasibility bound (4 tables schedule under
   every drawn processor count). *)

let max_drmt_tables = 4

let fresh_entry prng ~tables =
  let t = Prng.int prng tables in
  {
    Entries.en_table = "t" ^ string_of_int t;
    en_pattern = Entries.Pexact (Prng.int prng 256);
    en_action = "act" ^ string_of_int t;
    en_args = [ 1 + Prng.int prng 255 ];
  }

(* One dRMT mutation draw: (op, tables', entries'). *)
let mutate_drmt prng ~tables ~(entries : Entries.entry list) :
    (string * int * Entries.entry list) option =
  let grow () =
    if tables >= max_drmt_tables then None
    else Some ("dag_grow", tables + 1, entries @ [ fresh_entry prng ~tables:(tables + 1) ])
  in
  let split () =
    match entries with
    | [] -> Some ("entry_split", tables, [ fresh_entry prng ~tables ])
    | _ ->
      let k = Prng.int prng (List.length entries) in
      let sibling =
        let e = List.nth entries k in
        { e with Entries.en_pattern = Entries.Pexact (Prng.int prng 256);
                 en_args = [ 1 + Prng.int prng 255 ] }
      in
      Some ("entry_split", tables, entries @ [ sibling ])
  in
  if Prng.bool prng then match grow () with Some _ as r -> r | None -> split ()
  else split ()

(* --- JSON ------------------------------------------------------------------------ *)

let manifest_schema = "druzhba-corpus/1"
let entry_schema = "druzhba-corpus-entry/1"

let origin_json = function
  | Fresh -> Report.Str "fresh"
  | Mutated { parent; op } ->
    Report.Obj [ ("parent", Report.Int parent); ("op", Report.Str op) ]

let material_json = function
  | Rmt_material { depth; width; bits; stateful; stateless; mc } ->
    Report.Obj
      [
        ("family", Report.Str "rmt");
        ("depth", Report.Int depth);
        ("width", Report.Int width);
        ("bits", Report.Int bits);
        ("stateful", Report.Str stateful);
        ("stateless", Report.Str stateless);
        ( "machine_code",
          Report.Obj (List.map (fun (n, v) -> (n, Report.Int v)) (Machine_code.to_alist mc)) );
      ]
  | Drmt_material { tables; processors; entries } ->
    Report.Obj
      [
        ("family", Report.Str "drmt");
        ("tables", Report.Int tables);
        ("processors", Report.Int processors);
        ( "entries",
          Report.List
            (List.map
               (fun (e : Entries.entry) ->
                 let pattern =
                   match e.Entries.en_pattern with
                   | Entries.Pexact v -> Report.Int v
                   | _ -> Report.Null
                 in
                 Report.Obj
                   [
                     ("table", Report.Str e.Entries.en_table);
                     ("pattern", pattern);
                     ("action", Report.Str e.Entries.en_action);
                     ("args", Report.List (List.map (fun v -> Report.Int v) e.Entries.en_args));
                   ])
               entries) );
      ]

let entry_json (e : entry) : Report.t =
  Report.Obj
    [
      ("schema", Report.Str entry_schema);
      ("id", Report.Int e.e_id);
      ("trial", Report.Int e.e_trial);
      ("origin", origin_json e.e_origin);
      ("novel_features", Report.Int e.e_novel);
      ("material", material_json e.e_material);
    ]

let entry_file id = Printf.sprintf "entry-%05d.json" id

let manifest_json ~master_seed ~(coverage : Coverage.t) ~(summary : Coverage.summary) t :
    Report.t =
  Report.Obj
    [
      ("schema", Report.Str manifest_schema);
      ("master_seed", Report.Int master_seed);
      ("coverage", Coverage.summary_json summary);
      ( "features",
        Report.List (List.map (fun f -> Report.Str f) (Coverage.features coverage)) );
      ( "entries",
        Report.List
          (List.map
             (fun e ->
               Report.Obj [ ("id", Report.Int e.e_id); ("file", Report.Str (entry_file e.e_id)) ])
             (entries t)) );
    ]

(* --- Disk -------------------------------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Writes the whole corpus.  Every byte is a function of (corpus, coverage,
   master seed) — nothing environmental — so two runs of the same campaign
   at different job counts produce identical directories. *)
let save dir ~master_seed ~coverage ~summary t =
  mkdir_p dir;
  List.iter
    (fun e ->
      write_file (Filename.concat dir (entry_file e.e_id)) (Report.to_string (entry_json e) ^ "\n"))
    (entries t);
  write_file
    (Filename.concat dir "corpus.json")
    (Report.to_string (manifest_json ~master_seed ~coverage ~summary t) ^ "\n")

(* --- Loading (the druzhba-corpus/1 consumer) ---------------------------------------

   Total: every malformed file, unknown schema — including an unknown
   {e coverage-section} schema inside the manifest — or missing entry file
   is an [Error], never a crash or a silently misread corpus. *)

type loaded = {
  ld_master_seed : int;
  ld_summary : Coverage.summary;
  ld_features : string list;
  ld_entries : entry list;
}

let ( let* ) = Result.bind

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> Ok content
  | exception Sys_error msg -> Error msg

let jfield j key conv what =
  match Option.bind (Report.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: field %S missing or mistyped" what key)

let origin_of_json = function
  | Report.Str "fresh" -> Ok Fresh
  | Report.Obj _ as j ->
    let* parent = jfield j "parent" Report.to_int "corpus entry origin" in
    let* op = jfield j "op" Report.to_str "corpus entry origin" in
    Ok (Mutated { parent; op })
  | _ -> Error "corpus entry: malformed origin"

let material_of_json j =
  let* family = jfield j "family" Report.to_str "corpus entry material" in
  match family with
  | "rmt" ->
    let* depth = jfield j "depth" Report.to_int "rmt material" in
    let* width = jfield j "width" Report.to_int "rmt material" in
    let* bits = jfield j "bits" Report.to_int "rmt material" in
    let* stateful = jfield j "stateful" Report.to_str "rmt material" in
    let* stateless = jfield j "stateless" Report.to_str "rmt material" in
    let* pairs =
      match Report.member "machine_code" j with
      | Some (Report.Obj fields) ->
        List.fold_left
          (fun acc (n, v) ->
            let* acc = acc in
            match Report.to_int v with
            | Some value -> Ok ((n, value) :: acc)
            | None -> Error (Printf.sprintf "rmt material: pair %S mistyped" n))
          (Ok []) fields
        |> Result.map List.rev
      | _ -> Error "rmt material: machine_code missing"
    in
    let* mc = Machine_code.of_pairs pairs in
    Ok (Rmt_material { depth; width; bits; stateful; stateless; mc })
  | "drmt" ->
    let* tables = jfield j "tables" Report.to_int "drmt material" in
    let* processors = jfield j "processors" Report.to_int "drmt material" in
    let* entry_list = jfield j "entries" Report.to_list "drmt material" in
    let* entries =
      List.fold_left
        (fun acc ej ->
          let* acc = acc in
          let* table = jfield ej "table" Report.to_str "drmt entry" in
          let* pattern = jfield ej "pattern" Report.to_int "drmt entry" in
          let* action = jfield ej "action" Report.to_str "drmt entry" in
          let* args = jfield ej "args" Report.to_list "drmt entry" in
          let* args =
            List.fold_left
              (fun acc a ->
                let* acc = acc in
                match Report.to_int a with
                | Some v -> Ok (v :: acc)
                | None -> Error "drmt entry: non-integer arg")
              (Ok []) args
            |> Result.map List.rev
          in
          Ok
            ({ Entries.en_table = table; en_pattern = Entries.Pexact pattern;
               en_action = action; en_args = args }
            :: acc))
        (Ok []) entry_list
      |> Result.map List.rev
    in
    Ok (Drmt_material { tables; processors; entries })
  | f -> Error (Printf.sprintf "corpus entry: unknown material family %S" f)

let entry_of_json j =
  let* got = jfield j "schema" Report.to_str "corpus entry" in
  if got <> entry_schema then
    Error
      (Printf.sprintf "unsupported corpus entry schema %S (this reader understands %S)" got
         entry_schema)
  else
    let* id = jfield j "id" Report.to_int "corpus entry" in
    let* trial = jfield j "trial" Report.to_int "corpus entry" in
    let* novel = jfield j "novel_features" Report.to_int "corpus entry" in
    let* origin = Result.bind (jfield j "origin" Option.some "corpus entry") origin_of_json in
    let* material =
      Result.bind (jfield j "material" Option.some "corpus entry") material_of_json
    in
    Ok { e_id = id; e_trial = trial; e_origin = origin; e_material = material; e_novel = novel }

let load dir : (loaded, string) result =
  let manifest = Filename.concat dir "corpus.json" in
  let* src = read_file manifest in
  let* j = Report.parse src in
  let* got = jfield j "schema" Report.to_str "corpus manifest" in
  if got <> manifest_schema then
    Error
      (Printf.sprintf "unsupported corpus schema %S (this reader understands %S)" got
         manifest_schema)
  else
    let* master_seed = jfield j "master_seed" Report.to_int "corpus manifest" in
    let* summary =
      Result.bind (jfield j "coverage" Option.some "corpus manifest") Coverage.summary_of_json
    in
    let* features =
      let* l = jfield j "features" Report.to_list "corpus manifest" in
      List.fold_left
        (fun acc f ->
          let* acc = acc in
          match Report.to_str f with
          | Some s -> Ok (s :: acc)
          | None -> Error "corpus manifest: non-string feature")
        (Ok []) l
      |> Result.map List.rev
    in
    let* index = jfield j "entries" Report.to_list "corpus manifest" in
    let* entries =
      List.fold_left
        (fun acc ij ->
          let* acc = acc in
          let* file = jfield ij "file" Report.to_str "corpus manifest entry" in
          let* src = read_file (Filename.concat dir file) in
          let* ej = Report.parse src in
          let* e = entry_of_json ej in
          Ok (e :: acc))
        (Ok []) index
      |> Result.map List.rev
    in
    Ok { ld_master_seed = master_seed; ld_summary = summary; ld_features = features;
         ld_entries = entries }
