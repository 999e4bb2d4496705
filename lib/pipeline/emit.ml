(* Source emission for pipeline descriptions.

   The original dgen writes the pipeline description to disk as Rust source
   that is compiled together with dsim; our dgen produces an in-memory IR
   that the simulator interprets.  This module renders that IR as readable
   OCaml-style source, which reproduces the paper's Fig. 6 — the same
   description can be printed unoptimized (version 1), after SCC propagation
   (version 2), and after inlining (version 3) — and doubles as a debugging
   aid (the paper notes inlining was introduced partly to make the generated
   code legible). *)

let binop_symbol (op : Ir.binop) =
  match op with
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr ppf (e : Ir.expr) =
  match e with
  | Ir.Const n -> Fmt.int ppf n
  | Ir.Var v -> Fmt.string ppf v
  | Ir.Mc name -> Fmt.pf ppf "values[%S]" name
  | Ir.Trunc a -> Fmt.pf ppf "trunc (%a)" pp_expr a
  | Ir.Phv k -> Fmt.pf ppf "phv[%d]" k
  | Ir.State k -> Fmt.pf ppf "state[%d]" k
  | Ir.Unop (Neg, a) -> Fmt.pf ppf "-(%a)" pp_expr a
  | Ir.Unop (Not, a) -> Fmt.pf ppf "!(%a)" pp_expr a
  | Ir.Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Ir.Cond (c, a, b) -> Fmt.pf ppf "(if %a then %a else %a)" pp_expr c pp_expr a pp_expr b
  | Ir.Call (name, args) ->
    Fmt.pf ppf "%s (%a)" name Fmt.(list ~sep:(any ", ") pp_expr) args

let rec pp_stmt ~indent ppf (s : Ir.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Ir.Let (x, e) -> Fmt.pf ppf "%slet %s = %a in" pad x pp_expr e
  | Ir.Store (k, e) -> Fmt.pf ppf "%sstate[%d] <- %a;" pad k pp_expr e
  | Ir.Return e -> Fmt.pf ppf "%sreturn %a" pad pp_expr e
  | Ir.If (c, a, b) ->
    Fmt.pf ppf "%sif %a then begin@," pad pp_expr c;
    List.iter (fun s -> Fmt.pf ppf "%a@," (pp_stmt ~indent:(indent + 2)) s) a;
    if b = [] then Fmt.pf ppf "%send" pad
    else begin
      Fmt.pf ppf "%send else begin@," pad;
      List.iter (fun s -> Fmt.pf ppf "%a@," (pp_stmt ~indent:(indent + 2)) s) b;
      Fmt.pf ppf "%send" pad
    end

let pp_helper ppf (h : Ir.helper) =
  Fmt.pf ppf "@[<v>let %s %a =@,  %a@]" h.h_name
    Fmt.(list ~sep:(any " ") string)
    (if h.h_params = [] then [ "()" ] else h.h_params)
    pp_expr h.h_body

let pp_alu ppf (a : Ir.alu) =
  Fmt.pf ppf "@[<v>let %s phv state =@," a.a_name;
  List.iter (fun s -> Fmt.pf ppf "%a@," (pp_stmt ~indent:2) s) a.a_body;
  Fmt.pf ppf "  (* default output *) %a@]" pp_expr a.a_default_output

(* Renders the full description: all helpers in name order, then the ALU
   functions stage by stage, then the output-mux wiring summary. *)
let pp ppf (d : Ir.t) =
  let helpers =
    Hashtbl.fold (fun _ h acc -> h :: acc) d.Ir.d_helpers []
    |> List.sort (fun (a : Ir.helper) b -> String.compare a.h_name b.h_name)
  in
  Fmt.pf ppf "@[<v>(* pipeline description: depth=%d width=%d bits=%d *)@,@," d.Ir.d_depth
    d.Ir.d_width d.Ir.d_bits;
  List.iter (fun h -> Fmt.pf ppf "%a@,@," pp_helper h) helpers;
  Array.iter
    (fun (st : Ir.stage) ->
      Fmt.pf ppf "(* ---- stage %d ---- *)@,@," st.Ir.s_index;
      Array.iter (fun a -> Fmt.pf ppf "%a@,@," pp_alu a) st.Ir.s_stateless;
      Array.iter (fun a -> Fmt.pf ppf "%a@,@," pp_alu a) st.Ir.s_stateful;
      Array.iteri
        (fun c name -> Fmt.pf ppf "(* container %d written by %s *)@," c name)
        st.Ir.s_output_muxes;
      Fmt.pf ppf "@,")
    d.Ir.d_stages;
  Fmt.pf ppf "@]"

let to_string d = Fmt.str "%a" pp d

(* --- Native OCaml code emission -------------------------------------------

   Where the pretty-printer above renders the IR for humans, [native_source]
   renders it for ocamlopt: a self-contained OCaml module of straight-line
   code that the native substrate ({!Druzhba_dsim.Native_substrate}) compiles
   out-of-process with `ocamlfind ocamlopt -shared` and Dynlinks back in.
   This is the paper's actual dgen methodology — dgen emits Rust source that
   rustc compiles together with dsim; the measured artifact is the generated
   code, not an interpreter of it (§3.4).

   The emitted module:
   - bakes every machine-code operand ([Mc] node, mux ctrl) in as an integer
     literal, so it works at any optimization level and constant-folds the
     output-mux selector chains down to a single operand read;
   - carries no hashtables, closures, or heap allocation on the tick path:
     ALU bodies are flattened into nested [let]s over [int array] rows, with
     [If]/[Return] statements lowered by continuation duplication into pure
     expressions (the size blowup this can cause is what the
     `emitted-module-size` lint rule bounds, via {!stage_costs});
   - exposes one entry point per stage, over the flat register file,
     mirroring {!Compile}/{!Interp} semantics bit-for-bit (latched state
     reads, default-before-body evaluation);
   - ends in one [plugin] value of the {!Druzhba_dsim.Native_abi} record.
     It does not register itself: the native substrate wraps one or more
     emitted modules into a compilation unit that registers them all.

   Determinism: the source depends only on (description, machine code) — no
   timestamps, no hashtable iteration order — so equal inputs produce
   byte-identical source, which is what makes the content-addressed build
   cache sound. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Value = Druzhba_util.Value

type nctx = {
  n_bits : int;
  n_mc : Machine_code.t;
  n_helpers : (string, Ir.helper) Hashtbl.t;
  mutable n_fresh : int;
}

let fresh ctx prefix =
  ctx.n_fresh <- ctx.n_fresh + 1;
  Printf.sprintf "%s%d" prefix ctx.n_fresh

let mask_of ctx = (1 lsl ctx.n_bits) - 1

(* Compile-time value of a (sub)expression, folding through baked machine
   code with the exact {!Value} semantics the runtime uses.  This is what
   collapses a mux selector chain over a constant ctrl to its taken arm. *)
let rec fold_const ctx (e : Ir.expr) : int option =
  match e with
  | Ir.Const n -> Some n
  | Ir.Mc name -> Some (Machine_code.find ctx.n_mc name)
  | Ir.Trunc a -> Option.map (Value.mask ctx.n_bits) (fold_const ctx a)
  | Ir.Unop (op, a) -> Option.map (Interp.apply_unop ctx.n_bits op) (fold_const ctx a)
  | Ir.Binop (op, a, b) -> (
    match (fold_const ctx a, fold_const ctx b) with
    | Some x, Some y -> Some (Interp.apply_binop ctx.n_bits op x y)
    | _ -> None)
  | Ir.Cond (c, a, b) -> (
    match fold_const ctx c with
    | Some v -> fold_const ctx (if v <> 0 then a else b)
    | None -> None)
  | Ir.Var _ | Ir.Phv _ | Ir.State _ | Ir.Call _ -> None

(* How expressions inside one ALU (or mux) body reach their surroundings:
   container reads, latched state reads, and the live state row stores
   write to. *)
type naccess = {
  na_phv : int -> string;
  na_state : int -> string;
  na_row : string option;
}

let occurrences x e =
  Ir.fold_expr (fun n e -> match e with Ir.Var v when String.equal v x -> n + 1 | _ -> n) 0 e

(* Renders an expression as a parenthesized OCaml expression.  [env] maps IR
   variable names to already-emitted OCaml locals; helper calls are
   beta-reduced exactly as the closure backend does (single-use parameters
   substituted, multi-use parameters bound once to a fresh local so every
   argument is evaluated exactly once). *)
let rec emit_expr ctx acc env (e : Ir.expr) : string =
  match fold_const ctx e with
  | Some n -> Printf.sprintf "(%d)" n
  | None -> (
    match e with
    | Ir.Const n -> Printf.sprintf "(%d)" n
    | Ir.Mc name -> Printf.sprintf "(%d)" (Machine_code.find ctx.n_mc name)
    | Ir.Var v -> (
      match List.assoc_opt v env with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Emit.native_source: unbound variable '%s'" v))
    | Ir.Trunc a -> Printf.sprintf "(%s land %d)" (emit_expr ctx acc env a) (mask_of ctx)
    | Ir.Phv k -> acc.na_phv k
    | Ir.State k -> acc.na_state k
    | Ir.Unop (Ir.Neg, a) ->
      Printf.sprintf "((- %s) land %d)" (emit_expr ctx acc env a) (mask_of ctx)
    | Ir.Unop (Ir.Not, a) -> Printf.sprintf "(if %s = 0 then 1 else 0)" (emit_expr ctx acc env a)
    | Ir.Binop (op, a, b) -> emit_binop ctx acc env op a b
    | Ir.Cond (c, a, b) -> (
      match fold_const ctx c with
      | Some v -> emit_expr ctx acc env (if v <> 0 then a else b)
      | None ->
        Printf.sprintf "(if %s <> 0 then %s else %s)" (emit_expr ctx acc env c)
          (emit_expr ctx acc env a) (emit_expr ctx acc env b))
    | Ir.Call (name, args) ->
      let h =
        match Hashtbl.find_opt ctx.n_helpers name with
        | Some h -> h
        | None -> invalid_arg (Printf.sprintf "Emit.native_source: unknown helper '%s'" name)
      in
      let pairs = List.combine h.Ir.h_params args in
      let single, multi = List.partition (fun (p, _) -> occurrences p h.Ir.h_body <= 1) pairs in
      let body = Ir.subst_vars single h.Ir.h_body in
      let binds = List.map (fun (p, a) -> (p, fresh ctx "h", a)) multi in
      let env' = List.map (fun (p, v, _) -> (p, v)) binds @ env in
      if binds = [] then emit_expr ctx acc env' body
      else
        Printf.sprintf "(%s%s)"
          (String.concat ""
             (List.map
                (fun (_, v, a) -> Printf.sprintf "let %s = %s in " v (emit_expr ctx acc env a))
                binds))
          (emit_expr ctx acc env' body))

and emit_binop ctx acc env op a b =
  let m = mask_of ctx in
  let arith sym =
    Printf.sprintf "((%s %s %s) land %d)" (emit_expr ctx acc env a) sym (emit_expr ctx acc env b) m
  in
  let rel sym =
    Printf.sprintf "(if %s %s %s then 1 else 0)" (emit_expr ctx acc env a) sym
      (emit_expr ctx acc env b)
  in
  (* division/modulo by zero yield 0, the hardware convention of {!Value} *)
  let guarded sym =
    let dv = fresh ctx "q" in
    Printf.sprintf "(let %s = %s in if %s = 0 then 0 else (%s %s %s) land %d)" dv
      (emit_expr ctx acc env b) dv (emit_expr ctx acc env a) sym dv m
  in
  match op with
  | Ir.Add -> arith "+"
  | Ir.Sub -> arith "-"
  | Ir.Mul -> arith "*"
  | Ir.Div -> guarded "/"
  | Ir.Mod -> guarded "mod"
  | Ir.Eq -> rel "="
  | Ir.Neq -> rel "<>"
  | Ir.Lt -> rel "<"
  | Ir.Gt -> rel ">"
  | Ir.Le -> rel "<="
  | Ir.Ge -> rel ">="
  | Ir.And ->
    Printf.sprintf "(if %s <> 0 && %s <> 0 then 1 else 0)" (emit_expr ctx acc env a)
      (emit_expr ctx acc env b)
  | Ir.Or ->
    Printf.sprintf "(if %s <> 0 || %s <> 0 then 1 else 0)" (emit_expr ctx acc env a)
      (emit_expr ctx acc env b)

(* Lowers a statement list to the expression computing the ALU's output.
   [Return] discards its continuation; [If] duplicates the continuation into
   both arms (the scalar engines' "rest of list" scoping: a branch-local
   [Let] is visible to the continuation only along its own path, which is
   the only pattern dgen generates).  [default] is the local holding the
   already-evaluated default output. *)
let rec emit_stmts ctx acc env (stmts : Ir.stmt list) ~default : string =
  match stmts with
  | [] -> default
  | Ir.Let (x, e) :: rest ->
    let v = fresh ctx "v" in
    Printf.sprintf "(let %s = %s in %s)" v (emit_expr ctx acc env e)
      (emit_stmts ctx acc ((x, v) :: env) rest ~default)
  | Ir.Store (k, e) :: rest ->
    let row =
      match acc.na_row with
      | Some r -> r
      | None -> invalid_arg "Emit.native_source: store in a stateless ALU"
    in
    Printf.sprintf "(%s.(%d) <- %s; %s)" row k (emit_expr ctx acc env e)
      (emit_stmts ctx acc env rest ~default)
  | Ir.Return e :: _ -> emit_expr ctx acc env e
  | Ir.If (c, a, b) :: rest -> (
    match fold_const ctx c with
    | Some v -> emit_stmts ctx acc env ((if v <> 0 then a else b) @ rest) ~default
    | None ->
      Printf.sprintf "(if %s <> 0 then %s else %s)" (emit_expr ctx acc env c)
        (emit_stmts ctx acc env (a @ rest) ~default)
        (emit_stmts ctx acc env (b @ rest) ~default))

(* Emits one ALU's bindings into [buf]: the latched snapshot, the default
   output (evaluated first, like the scalar engines), the body, and — for
   stateful ALUs — the post-execution state_0.  Returns the output local and
   the state_0 local. *)
let emit_alu ctx buf ~phv ~row (a : Ir.alu) : string * string option =
  let pad = "  " in
  let snaps =
    match row with
    | None -> []
    | Some r ->
      List.init
        (max 1 a.Ir.a_state_size)
        (fun k ->
          let v = fresh ctx "r" in
          Printf.bprintf buf "%slet %s = Array.unsafe_get %s %d in\n" pad v r k;
          (k, v))
  in
  let acc =
    {
      na_phv = phv;
      na_state =
        (fun k ->
          match List.assoc_opt k snaps with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Emit.native_source: state slot %d out of range in '%s'" k
                 a.Ir.a_name));
      na_row = row;
    }
  in
  let d = fresh ctx "d" in
  Printf.bprintf buf "%slet %s = %s in\n" pad d (emit_expr ctx acc [] a.Ir.a_default_output);
  let y = fresh ctx "y" in
  Printf.bprintf buf "%slet %s = %s in\n" pad y (emit_stmts ctx acc [] a.Ir.a_body ~default:d);
  let z =
    match row with
    | None -> None
    | Some r ->
      let z = fresh ctx "z" in
      Printf.bprintf buf "%slet %s = Array.unsafe_get %s 0 in\n" pad z r;
      Some z
  in
  (y, z)

(* Emits one output mux application: parameters bind positionally to the
   stage argument vector (stateless outs, stateful outs, post-execution
   state_0s, old container value) and a trailing "ctrl" parameter is baked
   to its machine-code value — which lets the selector chain fold down to
   the selected operand. *)
let emit_mux ctx (d : Ir.t) ~phv ~args name =
  let h = Ir.find_helper d name in
  let body, data_params =
    if List.mem "ctrl" h.Ir.h_params then
      ( Ir.subst_vars [ ("ctrl", Ir.Const (Machine_code.find ctx.n_mc name)) ] h.Ir.h_body,
        List.filter (fun p -> p <> "ctrl") h.Ir.h_params )
    else (h.Ir.h_body, h.Ir.h_params)
  in
  let rec bind env ps vs =
    match (ps, vs) with
    | [], _ | _, [] -> env
    | p :: ps', v :: vs' -> bind ((p, v) :: env) ps' vs'
  in
  let env = bind [] data_params args in
  let acc =
    {
      na_phv = phv;
      na_state =
        (fun _ -> invalid_arg (Printf.sprintf "Emit.native_source: state read in mux '%s'" name));
      na_row = None;
    }
  in
  emit_expr ctx acc env body

(* Number of stateful ALUs in stages before [s] — the base of stage [s]'s
   state rows in the plugin's flat stage-major state array. *)
let stateful_base (d : Ir.t) s =
  let base = ref 0 in
  for i = 0 to s - 1 do
    base := !base + Array.length d.Ir.d_stages.(i).Ir.s_stateful
  done;
  !base

(* Entry point for stage [s]: reads row s of the flat [cur] register
   file, writes row s+1 of [nxt] (container offsets baked). *)
let emit_stage ctx buf (d : Ir.t) (st : Ir.stage) =
  let width = d.Ir.d_width and s = st.Ir.s_index in
  let base = s * width and out_base = (s + 1) * width in
  let g0 = stateful_base d s in
  Printf.bprintf buf "let exec_stage_%d (st : int array array) (cur : int array) (nxt : int array) =\n" s;
  let phv k = Printf.sprintf "(Array.unsafe_get cur %d)" (base + k) in
  let xs = Array.map (fun a -> fst (emit_alu ctx buf ~phv ~row:None a)) st.Ir.s_stateless in
  let yzs =
    Array.mapi
      (fun j a ->
        Printf.bprintf buf "  let sr%d = Array.unsafe_get st %d in\n" j (g0 + j);
        let y, z = emit_alu ctx buf ~phv ~row:(Some (Printf.sprintf "sr%d" j)) a in
        (y, Option.get z))
      st.Ir.s_stateful
  in
  let mux_args c =
    Array.to_list xs @ Array.to_list (Array.map fst yzs) @ Array.to_list (Array.map snd yzs)
    @ [ phv c ]
  in
  let sets =
    List.init width (fun c ->
        Printf.sprintf "  Array.unsafe_set nxt %d %s" (out_base + c)
          (emit_mux ctx d ~phv ~args:(mux_args c) st.Ir.s_output_muxes.(c)))
  in
  Printf.bprintf buf "%s\n\n" (String.concat ";\n" sets)

(* The full module.  Self-contained: Stdlib only, plus the host's
   {!Druzhba_dsim.Native_abi} record type for its final [plugin]. *)
let native_source (d : Ir.t) ~mc : string =
  let ctx = { n_bits = d.Ir.d_bits; n_mc = mc; n_helpers = d.Ir.d_helpers; n_fresh = 0 } in
  let buf = Buffer.create 4096 in
  let depth = d.Ir.d_depth and width = d.Ir.d_width in
  Printf.bprintf buf
    "(* Generated by druzhba (Emit.native_source): depth=%d width=%d bits=%d.\n\
    \   Machine code is baked in as integer literals; do not edit. *)\n\
     [@@@warning \"-a\"]\n\n"
    depth width d.Ir.d_bits;
  let stateful =
    Array.to_list d.Ir.d_stages
    |> List.concat_map (fun (st : Ir.stage) -> Array.to_list st.Ir.s_stateful)
  in
  Printf.bprintf buf "let state_names : string array = [| %s |]\n\n"
    (String.concat "; " (List.map (fun (a : Ir.alu) -> Printf.sprintf "%S" a.Ir.a_name) stateful));
  Printf.bprintf buf "let alloc () : int array array = [| %s |]\n\n"
    (String.concat "; "
       (List.map
          (fun (a : Ir.alu) -> Printf.sprintf "Array.make %d 0" (max 1 a.Ir.a_state_size))
          stateful));
  Printf.bprintf buf "let stage_bases : int array = [| %s |]\n\n"
    (String.concat "; "
       (List.init depth (fun s -> string_of_int (stateful_base d s))));
  Array.iter (fun st -> emit_stage ctx buf d st) d.Ir.d_stages;
  Printf.bprintf buf "let exec_stage st s cur nxt =\n  match s with\n";
  for s = 0 to depth - 1 do
    Printf.bprintf buf "  | %d -> exec_stage_%d st cur nxt\n" s s
  done;
  Printf.bprintf buf "  | _ -> ignore st; ignore cur; ignore nxt\n\n";
  Printf.bprintf buf
    "let plugin =\n\
    \  {\n\
    \    Druzhba_dsim.Native_abi.np_depth = %d;\n\
    \    np_width = %d;\n\
    \    np_state_names = state_names;\n\
    \    np_stage_bases = stage_bases;\n\
    \    np_alloc = alloc;\n\
    \    np_exec_stage = exec_stage;\n\
    \  }\n"
    depth width;
  Buffer.contents buf

(* --- Emitted-code size estimation ------------------------------------------

   Continuation duplication is exponential in nested-[If] depth in the worst
   case, and a single pathological stage function can push ocamlopt into
   minutes of compile time.  [stage_costs] estimates the emitted expression
   size per stage with the same duplication the emitter performs (helper
   bodies expanded at every call site), saturating well above any sane
   threshold; the `emitted-module-size` lint rule warns on it. *)

let cost_cap = 10_000_000
let sat_add a b = let s = a + b in if s > cost_cap || s < 0 then cost_cap else s

let rec cost_expr helpers (e : Ir.expr) =
  match e with
  | Ir.Const _ | Ir.Var _ | Ir.Mc _ | Ir.Phv _ | Ir.State _ -> 1
  | Ir.Trunc a | Ir.Unop (_, a) -> sat_add 1 (cost_expr helpers a)
  | Ir.Binop (_, a, b) -> sat_add 1 (sat_add (cost_expr helpers a) (cost_expr helpers b))
  | Ir.Cond (c, a, b) ->
    sat_add 1 (sat_add (cost_expr helpers c) (sat_add (cost_expr helpers a) (cost_expr helpers b)))
  | Ir.Call (name, args) ->
    let body =
      match Hashtbl.find_opt helpers name with
      | Some (h : Ir.helper) -> cost_expr helpers h.Ir.h_body
      | None -> 1
    in
    List.fold_left (fun n a -> sat_add n (cost_expr helpers a)) (sat_add 1 body) args

(* [kcost] is the cost of the continuation following [stmts]; [If] arms each
   pay it once (the duplication), computed in linear time by threading the
   already-summed continuation cost instead of re-walking the list. *)
let rec cost_stmts helpers (stmts : Ir.stmt list) kcost =
  match stmts with
  | [] -> kcost
  | (Ir.Let (_, e) | Ir.Store (_, e)) :: rest ->
    sat_add (cost_expr helpers e) (cost_stmts helpers rest kcost)
  | Ir.Return e :: _ -> cost_expr helpers e
  | Ir.If (c, a, b) :: rest ->
    let rc = cost_stmts helpers rest kcost in
    sat_add (cost_expr helpers c)
      (sat_add (cost_stmts helpers a rc) (cost_stmts helpers b rc))

let stage_cost (d : Ir.t) (st : Ir.stage) =
  let helpers = d.Ir.d_helpers in
  let alu (a : Ir.alu) =
    sat_add (cost_expr helpers a.Ir.a_default_output) (cost_stmts helpers a.Ir.a_body 1)
  in
  let mux name =
    match Hashtbl.find_opt helpers name with
    | Some (h : Ir.helper) -> cost_expr helpers h.Ir.h_body
    | None -> 1
  in
  let n = ref 0 in
  Array.iter (fun a -> n := sat_add !n (alu a)) st.Ir.s_stateless;
  Array.iter (fun a -> n := sat_add !n (alu a)) st.Ir.s_stateful;
  Array.iter (fun m -> n := sat_add !n (mux m)) st.Ir.s_output_muxes;
  !n

let stage_costs (d : Ir.t) = Array.map (stage_cost d) d.Ir.d_stages
