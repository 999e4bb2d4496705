(* The native-codegen substrate: emit real OCaml from the pipeline IR,
   compile it out-of-process with `ocamlfind ocamlopt -shared`, Dynlink the
   resulting `.cmxs` back in, and drive it behind the {!Substrate} contract.

   This reproduces the paper's actual dgen methodology: dgen writes Rust
   source that rustc compiles together with dsim, and the measured artifact
   is the generated code (§3.4, Table 1).  The interpreter and the closure
   backend remain the slow references that keep this fast generated artifact
   honest — the campaign oracle diffs all of them.

   Layers:
   - {b emission}: {!Druzhba_pipeline.Emit.native_source} renders the IR as
     a self-contained module (machine code baked in, no hashtables or
     closures on the tick path) ending in one {!Native_abi} plugin value.
   - {b build cache}: each program is content-addressed by a digest of
     (emitted source, compiler version, ABI version).  A `.cmxs` artifact
     is one compilation unit holding either one program (a lone artifact)
     or a whole campaign block's programs (a pack, one ocamlopt exec for
     all of them), and registers every program it holds.  The on-disk cache
     is shared by concurrent processes — publication reuses the checkpoint
     writer's atomic tmp + fsync + rename discipline, so forked service
     workers racing on one program never observe torn artifacts.
   - {b degradation}: every entry point returns [Error reason] instead of
     raising when the toolchain is unavailable (no ocamlfind, bytecode
     host, no cmi directory, or [DRUZHBA_NATIVE_DISABLE] set); callers fall
     back to the interpreted paths with a structured note.
   - {b driver}: the runtime mirrors {!Compiled} tick-for-tick (ping-pong
     register file, occupancy bitmask, budget spends, fault overlays), so
     traces, final state, and fuel accounting are bit-identical to the
     Engine/Compiled substrates by construction of the emitted code.

   Environment knobs: [DRUZHBA_NATIVE_DISABLE] forces unavailability (the
   CI no-toolchain job and the skip-path tests use it);
   [DRUZHBA_NATIVE_CACHE_DIR] overrides the cache location (default
   `<tmpdir>/druzhba-native-cache`); [DRUZHBA_NATIVE_INCLUDE] pins the
   directory holding `druzhba_dsim.cmi` when auto-discovery cannot find the
   dune build tree. *)

module Ir = Druzhba_pipeline.Ir
module Emit = Druzhba_pipeline.Emit
module Machine_code = Druzhba_machine_code.Machine_code
module Atomic_file = Druzhba_util.Atomic_file

(* --- Toolchain discovery ---------------------------------------------------- *)

type toolchain = { tc_ocamlfind : string; tc_include : string }

let find_in_path exe =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char ':' path
    |> List.find_map (fun dir ->
           if dir = "" then None
           else
             let p = Filename.concat dir exe in
             match Unix.access p [ Unix.X_OK ] with
             | () -> if Sys.is_directory p then None else Some p
             | exception Unix.Unix_error (_, _, _) -> None)

let has_cmis dir =
  Sys.file_exists (Filename.concat dir "druzhba_dsim.cmi")
  && Sys.file_exists (Filename.concat dir "druzhba_dsim__Native_abi.cmi")

(* The emitted module references [Druzhba_dsim.Native_abi], so ocamlopt
   needs the cmi of the wrapped library.  In a dune tree those live in
   `_build/default/lib/dsim/.druzhba_dsim.objs/byte`; we look for that
   directory upward from the running executable and from the cwd, which
   covers `dune exec`, the installed `_build` binaries, and the test
   runner. *)
let discover_include () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_INCLUDE" with
  | Some dir when dir <> "" -> if has_cmis dir then Some dir else None
  | _ ->
    let objs = Filename.concat "lib/dsim" ".druzhba_dsim.objs/byte" in
    let candidates root =
      [ Filename.concat root objs; Filename.concat (Filename.concat root "_build/default") objs ]
    in
    let rec walk dir n =
      if n = 0 then None
      else
        match List.find_opt has_cmis (candidates dir) with
        | Some found -> Some found
        | None ->
          let parent = Filename.dirname dir in
          if String.equal parent dir then None else walk parent (n - 1)
    in
    let exe_dir = try Filename.dirname Sys.executable_name with Sys_error _ -> "." in
    let cwd = try Sys.getcwd () with Sys_error _ -> "." in
    (match walk exe_dir 8 with Some d -> Some d | None -> walk cwd 8)

let disabled () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_DISABLE" with
  | Some s when s <> "" -> true
  | _ -> false

(* Probed per call (cheap stats), so tests can flip the environment at
   runtime and availability tracks it. *)
let probe () : (toolchain, string) result =
  if disabled () then Error "disabled via DRUZHBA_NATIVE_DISABLE"
  else if not Dynlink.is_native then
    Error "host is running bytecode (Dynlink.is_native = false); natdynlink unavailable"
  else
    match find_in_path "ocamlfind" with
    | None -> Error "ocamlfind not found on PATH"
    | Some ocamlfind -> (
      match discover_include () with
      | None ->
        Error
          "druzhba_dsim cmi directory not found (set DRUZHBA_NATIVE_INCLUDE to the \
           .druzhba_dsim.objs/byte directory)"
      | Some inc -> Ok { tc_ocamlfind = ocamlfind; tc_include = inc })

let available () : (unit, string) result = Result.map (fun _ -> ()) (probe ())

(* --- Content-addressed build cache ------------------------------------------ *)

let cache_dir () =
  match Sys.getenv_opt "DRUZHBA_NATIVE_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "druzhba-native-cache"

let rec mkdir_p dir =
  if (not (Sys.file_exists dir)) && not (String.equal dir (Filename.dirname dir)) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The content address covers everything the artifact depends on: the
   emitted source (itself a pure function of description + machine code),
   the compiler that built it, and the host ABI the module registers
   through.  Equal key => interchangeable plugin. *)
let content_key source =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "druzhba-native|abi=%d|%s|%s" Native_abi.version Sys.ocaml_version source))

(* Every artifact is one compilation unit that registers all the plugins it
   holds in one {!Native_abi.register} call.  A lone artifact holds one
   emitted module at the top level and is named by that module's content
   key.  A pack holds up to {!max_pack} emitted modules, member [i] wrapped
   as [module P<i> = struct ... end], and is named by a digest of its
   sorted member keys — one ocamlopt exec then builds a whole campaign
   block instead of one exec per program. *)
let lone_name key = "druzhba_native_" ^ key

let pack_name keys =
  "druzhba_native_pack_" ^ Digest.to_hex (Digest.string (String.concat "," (List.sort compare keys)))

let max_pack = 64

let register_call entries =
  Printf.sprintf "let () = Druzhba_dsim.Native_abi.register [ %s ]\n"
    (String.concat "; " (List.map (fun (key, value) -> Printf.sprintf "(%S, %s)" key value) entries))

let lone_unit ~key source = source ^ "\n" ^ register_call [ (key, "plugin") ]

let pack_unit members =
  let buf = Buffer.create 65536 in
  List.iteri (fun i (_, source) -> Printf.bprintf buf "module P%d = struct\n%s\nend\n\n" i source) members;
  Buffer.add_string buf
    (register_call (List.mapi (fun i (key, _) -> (key, Printf.sprintf "P%d.plugin" i)) members));
  Buffer.contents buf

let cmxs_path name = Filename.concat (cache_dir ()) (name ^ ".cmxs")

(* Where the build cache holds (or would hold) the lone artifact for this
   (description, machine code) under the current environment; a program
   built inside a pack has no artifact of its own.  Exposed so tests and
   operators can inspect, pre-seed, or evict cache entries; note that
   within one process a path that has already been Dynlinked is served from
   the loader's handle cache, so editing it has no effect until a fresh
   process reads it. *)
let artifact_path (desc : Ir.t) ~mc = cmxs_path (lone_name (content_key (Emit.native_source desc ~mc)))

let remove_tree dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ()) entries;
    (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ())

let read_file_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ""
  | s ->
    let s = String.trim s in
    if String.length s <= 2000 then s else String.sub s (String.length s - 2000) 2000

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | (_, status) -> status

let run_command argv ~stderr_file : (unit, string) result =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err_fd =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close devnull with Unix.Unix_error (_, _, _) -> ());
        try Unix.close err_fd with Unix.Unix_error (_, _, _) -> ())
      (fun () -> Unix.create_process argv.(0) argv devnull err_fd err_fd)
  in
  match waitpid_retry pid with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exit %d: %s" n (read_file_tail stderr_file))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "signal %d: %s" n (read_file_tail stderr_file))

(* Build-cache instrumentation, read by tests and the bench report.
   [st_compiles] counts published artifacts, so it always equals the
   `.cmxs` files a fresh cache directory gains; [st_failed] counts
   ocamlopt execs that published nothing. *)
type stats = { st_compiles : int; st_cache_hits : int; st_memo_hits : int; st_failed : int }

let n_compiles = ref 0
let n_cache_hits = ref 0
let n_memo_hits = ref 0
let n_failed = ref 0

(* Compiles the unit [source] into the cache as [name] if no such artifact
   exists yet; returns the cached `.cmxs` path.  Staging happens in a
   per-pid build directory (ocamlopt writes its .cmi/.cmx/.o next to the
   source, and the module name must match the final file name), and
   publication is an atomic rename — two processes racing on one name each
   stage privately and the renames serialize. *)
let compile_cmxs tc ~name ~source : (string, string) result =
  let cache = cache_dir () in
  mkdir_p cache;
  let dest = cmxs_path name in
  if Sys.file_exists dest then begin
    incr n_cache_hits;
    Ok dest
  end
  else begin
    let build = Filename.concat cache (Printf.sprintf "build.%d.%s" (Unix.getpid ()) name) in
    mkdir_p build;
    let ml = Filename.concat build (name ^ ".ml") in
    let cmxs = Filename.concat build (name ^ ".cmxs") in
    let errf = Filename.concat build "stderr" in
    Out_channel.with_open_bin ml (fun oc -> Out_channel.output_string oc source);
    let argv =
      [|
        tc.tc_ocamlfind; "ocamlopt"; "-shared"; "-w"; "-a"; "-I"; tc.tc_include; "-o"; cmxs; ml;
      |]
    in
    let result =
      match run_command argv ~stderr_file:errf with
      | Error e -> Error (Printf.sprintf "ocamlfind ocamlopt failed (%s)" e)
      | Ok () ->
        if not (Sys.file_exists cmxs) then Error "ocamlfind ocamlopt produced no .cmxs"
        else begin
          Atomic_file.atomic_publish ~src:cmxs ~dest;
          Ok dest
        end
    in
    remove_tree build;
    incr (if Result.is_ok result then n_compiles else n_failed);
    result
  end

let load_cmxs path : ((string * Native_abi.plugin) list, string) result =
  match Dynlink.loadfile_private path with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception e -> Error (Printexc.to_string e)
  | () -> (
    match Native_abi.take () with
    | [] -> Error "loaded module did not register a plugin"
    | plugins -> Ok plugins)

(* Dynlink is not safe for concurrent use and the campaign runner shards
   trials across domains, so every load (and in-process compile) runs under
   one global mutex.  Loaded plugins are memoized per content key: the
   emitted code is pure over caller-provided arrays, so one plugin instance
   serves any number of substrate values concurrently.  [no_pack] holds the
   keys of every member of a pack that failed to build or load; those are
   only ever built alone, so one bad program costs one failed pack exec, not
   one per trial of its block. *)
let lock = Mutex.create ()
let memo : (string, Native_abi.plugin) Hashtbl.t = Hashtbl.create 16
let no_pack : (string, unit) Hashtbl.t = Hashtbl.create 16

let stats () =
  Mutex.protect lock (fun () ->
      {
        st_compiles = !n_compiles;
        st_cache_hits = !n_cache_hits;
        st_memo_hits = !n_memo_hits;
        st_failed = !n_failed;
      })

(* Drops the in-process plugin memo (the on-disk cache is untouched); test
   hook for exercising cache hit and corrupted-artifact paths. *)
let clear_memo () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset memo;
      Hashtbl.reset no_pack)

let fits (desc : Ir.t) (p : Native_abi.plugin) =
  p.Native_abi.np_depth = desc.Ir.d_depth && p.Native_abi.np_width = desc.Ir.d_width

(* The lone build, under [lock]. *)
let build_lone tc (desc : Ir.t) ~key ~source : (Native_abi.plugin, string) result =
  let name = lone_name key and source = lone_unit ~key source in
  let load path =
    Result.bind (load_cmxs path) (fun plugins ->
        Option.to_result ~none:"loaded module did not register this program"
          (List.assoc_opt key plugins))
  in
  let result =
    match compile_cmxs tc ~name ~source with
    | Error e -> Error e
    | Ok path -> (
      match load path with
      | Ok p -> Ok p
      | Error first -> (
        (* a corrupted cached artifact (torn write from a killed process,
           stale compiler) is evicted and rebuilt once *)
        (try Sys.remove path with Sys_error _ -> ());
        match compile_cmxs tc ~name ~source with
        | Error e -> Error (Printf.sprintf "%s (after evicting corrupt cache: %s)" e first)
        | Ok path -> load path))
  in
  match result with
  | Ok p when not (fits desc p) -> Error "loaded plugin geometry does not match the description"
  | Ok p ->
    Hashtbl.replace memo key p;
    Ok p
  | Error _ -> result

(* The pack members for a requester: itself first, then [build_with]'s
   programs that are not memoized yet, deduplicated by key, at most
   {!max_pack}.  A program the emitter rejects is skipped. *)
let pack_members ~requester build_with =
  let seen = Hashtbl.create max_pack in
  let rec gather n acc = function
    | [] -> List.rev acc
    | _ when n >= max_pack -> List.rev acc
    | (desc, mc) :: rest -> (
      match Emit.native_source desc ~mc with
      | exception Invalid_argument _ -> gather n acc rest
      | source ->
        let key = content_key source in
        if Hashtbl.mem seen key || Hashtbl.mem memo key || Hashtbl.mem no_pack key then
          gather n acc rest
        else begin
          Hashtbl.replace seen key ();
          gather (n + 1) ((key, source, desc) :: acc) rest
        end)
  in
  let key, _, _ = requester in
  Hashtbl.replace seen key ();
  gather 1 [ requester ] (build_with ())

(* Builds and loads one pack, under [lock], memoizing every member whose
   geometry matches its description.  A pack that fails to build or load
   is evicted and its members marked [no_pack]; the caller then builds the
   requester alone. *)
let build_pack tc members =
  let keys = List.map (fun (key, _, _) -> key) members in
  let source = pack_unit (List.map (fun (key, source, _) -> (key, source)) members) in
  let loaded =
    match compile_cmxs tc ~name:(pack_name keys) ~source with
    | Error e -> Error e
    | Ok path -> (
      match load_cmxs path with
      | Ok plugins -> Ok plugins
      | Error e ->
        (try Sys.remove path with Sys_error _ -> ());
        Error e)
  in
  match loaded with
  | Ok plugins ->
    List.iter
      (fun (key, _, desc) ->
        match List.assoc_opt key plugins with
        | Some p when fits desc p -> Hashtbl.replace memo key p
        | _ -> ())
      members
  | Error _ -> List.iter (fun key -> Hashtbl.replace no_pack key ()) keys

let plugin_for ?build_with (desc : Ir.t) ~mc : (Native_abi.plugin, string) result =
  match probe () with
  | Error e -> Error e
  | Ok tc ->
    let source = Emit.native_source desc ~mc in
    let key = content_key source in
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt memo key with
        | Some p ->
          incr n_memo_hits;
          Ok p
        | None -> (
          (match build_with with
          | Some build_with
            when (not (Hashtbl.mem no_pack key)) && not (Sys.file_exists (cmxs_path (lone_name key))) -> (
            match pack_members ~requester:(key, source, desc) build_with with
            | _ :: _ :: _ as members -> build_pack tc members
            | _ | (exception _) -> ())
          | _ -> ());
          match Hashtbl.find_opt memo key with
          | Some p -> Ok p
          | None -> build_lone tc desc ~key ~source))

(* --- Runtime driver ---------------------------------------------------------

   A faithful mirror of {!Compiled}: double-buffered flat (depth+1) x width
   register file, occupancy bitmask, one budget unit per tick, and the
   fault protocols of {!Faults.run_compiled}/{!Faults.run_engine_batched}
   transcribed over the plugin's state rows. *)

type t = {
  plugin : Native_abi.plugin;
  label : string;
  depth : int;
  width : int;
  state : int array array; (* one row per stateful ALU, stage-major *)
  mutable cur : int array;
  mutable nxt : int array;
  mutable occ : int;
  mutable tick : int;
  mutable init : (string * int array) list;
  mutable rows : (int * Batch.rows) option; (* batched lane file, cached per capacity *)
}

let reset t = Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.state

let load_state_rows t init =
  match init with
  | [] -> ()
  | _ ->
    let tbl = Hashtbl.create (max 16 (List.length init)) in
    (* first binding wins, like the scalar engines *)
    List.iter
      (fun (name, values) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name values)
      init;
    Array.iteri
      (fun g row ->
        match Hashtbl.find_opt tbl t.plugin.Native_abi.np_state_names.(g) with
        | Some values -> Array.blit values 0 row 0 (min (Array.length values) (Array.length row))
        | None -> ())
      t.state

let tick_once t =
  let depth = t.depth and width = t.width in
  let occ = t.occ in
  let new_occ = ref 0 in
  let exec = t.plugin.Native_abi.np_exec_stage in
  for s = 0 to depth - 1 do
    if occ land (1 lsl s) <> 0 then begin
      exec t.state s t.cur t.nxt;
      new_occ := !new_occ lor (1 lsl (s + 1))
    end
  done;
  if occ land 1 <> 0 then begin
    Array.blit t.cur 0 t.nxt 0 width;
    new_occ := !new_occ lor 1
  end;
  let swapped = t.cur in
  t.cur <- t.nxt;
  t.nxt <- swapped;
  t.occ <- !new_occ;
  t.tick <- t.tick + 1;
  !new_occ land (1 lsl depth) <> 0

let inject t (phv : Phv.t) =
  Array.blit phv 0 t.cur 0 t.width;
  t.occ <- t.occ lor 1

let no_inject t = t.occ <- t.occ land lnot 1

let current_state t =
  Array.to_list
    (Array.mapi (fun g row -> (t.plugin.Native_abi.np_state_names.(g), Array.copy row)) t.state)

let apply_stuck t (plan : Faults.t) =
  List.iter
    (fun (s : Faults.stuck) ->
      t.state.(t.plugin.Native_abi.np_stage_bases.(s.Faults.sk_stage) + s.Faults.sk_alu).(s.Faults.sk_slot) <-
        s.Faults.sk_value)
    plan.Faults.fp_stuck

let rearm t =
  reset t;
  load_state_rows t t.init;
  t.occ <- 0;
  t.tick <- 0

let run_seq ?budget t ~inputs (buf : Trace.Buffer.t) =
  rearm t;
  Trace.Buffer.clear buf;
  let spend = match budget with None -> ignore | Some b -> fun () -> Budget.spend b in
  let out_off = t.depth * t.width in
  List.iter
    (fun phv ->
      spend ();
      inject t phv;
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off
  done

let run_faults_seq ?budget plan t ~inputs (buf : Trace.Buffer.t) =
  rearm t;
  Trace.Buffer.clear buf;
  let spend = match budget with None -> ignore | Some b -> fun () -> Budget.spend b in
  apply_stuck t plan;
  let out_off = t.depth * t.width in
  List.iteri
    (fun i phv ->
      spend ();
      if i < Array.length plan.Faults.fp_dropped && plan.Faults.fp_dropped.(i) then no_inject t
      else begin
        inject t phv;
        Faults.apply_flips plan t.cur i
      end;
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
      apply_stuck t plan)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
    apply_stuck t plan
  done

let run_batch ?budget ?overlays ~batch t ~inputs buf =
  rearm t;
  let rows =
    match t.rows with
    | Some (cap, rows) when cap = batch -> rows
    | _ ->
      let rows = Batch.create_rows ~depth:t.depth ~width:t.width ~cap:batch in
      t.rows <- Some (batch, rows);
      rows
  in
  let exec = t.plugin.Native_abi.np_exec_lanes in
  let ops =
    {
      Batch.bo_cap = batch;
      bo_depth = t.depth;
      bo_width = t.width;
      bo_rows = rows;
      bo_exec =
        (fun ~s ~k ~stuck -> exec t.state s (Array.unsafe_get rows s) (Array.unsafe_get rows (s + 1)) k stuck);
    }
  in
  Batch.run ?budget ?overlays ops ~inputs buf

let run_faults_batched ?budget ~batch plan t ~inputs buf =
  let overlays = Faults.primitives plan ~depth:t.depth in
  (try run_batch ?budget ~overlays ~batch t ~inputs buf
   with Budget.Exhausted as ex ->
     apply_stuck t plan;
     raise ex);
  apply_stuck t plan

module Native_sub = struct
  type nonrec t = t

  let name t = t.label
  let width t = t.width

  let load_state t init =
    t.init <- init;
    (* also arm the live state so step-based use sees the preload *)
    reset t;
    load_state_rows t init

  let run_into ?budget ?faults t ~inputs buf =
    match faults with
    | None -> run_seq ?budget t ~inputs buf
    | Some plan -> run_faults_seq ?budget plan t ~inputs buf

  let run_batch_into ?budget ?faults ~batch t ~inputs buf =
    match faults with
    | None -> run_batch ?budget ~batch t ~inputs buf
    | Some plan -> run_faults_batched ?budget ~batch plan t ~inputs buf

  let current_state = current_state

  let step t ~input =
    (match input with Some phv -> inject t phv | None -> no_inject t);
    if tick_once t then Some (Array.sub t.cur (t.depth * t.width) t.width) else None

  let boundaries t : Phv.t option array =
    Array.init (t.depth + 1) (fun s ->
        if t.occ land (1 lsl s) <> 0 then Some (Array.sub t.cur (s * t.width) t.width) else None)
end

(* [create ?label ?init ?build_with desc ~mc] emits, compiles (or reuses a
   cached artifact), loads, and packs the native substrate.  [Error reason]
   means the toolchain is unavailable or the out-of-process compile failed;
   the caller degrades to the interpreted paths.

   [build_with] lists programs likely to be requested next (a campaign
   passes its block's).  On a memo miss with no lone artifact on disk it is
   called once, under the lock, and the requester is built together with
   those programs in one pack, so concurrent requesters wait and then hit
   the memo.  If it raises, or the pack fails to build or load, the
   requester is built alone. *)
let create ?(label = "native") ?(init = []) ?build_with (desc : Ir.t) ~mc :
    (Substrate.packed, string) result =
  match plugin_for ?build_with desc ~mc with
  | Error e -> Error e
  | Ok plugin ->
    let depth = desc.Ir.d_depth and width = desc.Ir.d_width in
    if depth + 1 >= Sys.int_size then
      invalid_arg "Native_substrate.create: pipeline depth exceeds the occupancy bitmask";
    let t =
      {
        plugin;
        label;
        depth;
        width;
        state = plugin.Native_abi.np_alloc ();
        cur = Array.make ((depth + 1) * width) 0;
        nxt = Array.make ((depth + 1) * width) 0;
        occ = 0;
        tick = 0;
        init;
        rows = None;
      }
    in
    reset t;
    load_state_rows t init;
    Ok (Substrate.Packed ((module Native_sub), t))
