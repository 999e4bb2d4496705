(* Pipeline-description intermediate representation.

   This is the OCaml analogue of dgen's generated Rust code (paper §3.2,
   Fig. 6): a set of helper functions (one per mux / opcode construct) plus
   one function body per ALU.  The unoptimized description (version 1)
   contains [Mc] nodes — runtime lookups into the machine-code hash table —
   at helper call sites; SCC propagation (version 2) replaces them with
   constants and folds the helpers' bodies; inlining (version 3) removes the
   calls entirely. *)

type unop = Druzhba_alu_dsl.Ast.unop = Neg | Not [@@deriving eq, show { with_path = false }]

type binop = Druzhba_alu_dsl.Ast.binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Gt
  | Le
  | Ge
  | And
  | Or
[@@deriving eq, show { with_path = false }]

type expr =
  | Const of int
  | Var of string (* helper parameter or ALU-body local *)
  | Mc of string (* machine-code lookup: values["name"]; version-1 only *)
  | Trunc of expr (* truncate to the datapath width: immediates are data,
                     while selector values (raw [Mc]) live in control space *)
  | Phv of int (* read container [k] of the incoming PHV *)
  | State of int (* read slot [k] of the executing stateful ALU's state *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr (* if c <> 0 then a else b *)
  | Call of string * expr list (* helper invocation *)
[@@deriving eq, show { with_path = false }]

type stmt =
  | Let of string * expr
  | Store of int * expr (* state.(k) <- e *)
  | If of expr * stmt list * stmt list
  | Return of expr (* ALU output value *)
[@@deriving eq, show { with_path = false }]

(* A helper function generated for one mux / opcode / immediate construct.
   Each helper has exactly one call site in the generated description.
   [h_ctrl] is the selector domain of the helper's "ctrl" parameter — the
   machine-code value must lie in [0, n) — and becomes [None] once SCC
   propagation has specialized the control away. *)
type helper = { h_name : string; h_params : string list; h_body : expr; h_ctrl : int option }
[@@deriving eq, show { with_path = false }]

type alu_kind = Kstateful | Kstateless [@@deriving eq, show { with_path = false }]

type alu = {
  a_name : string; (* position-encoding prefix, e.g. "pipeline_stage_0_stateful_alu_1" *)
  a_kind : alu_kind;
  a_state_size : int; (* number of persistent state slots (0 if stateless) *)
  a_body : stmt list;
  (* Output when the body falls through without [Return]: stateful ALUs
     output their pre-execution state_0 (Banzai read-modify-write
     convention); this expression is evaluated before the body runs. *)
  a_default_output : expr;
}
[@@deriving eq, show { with_path = false }]

type stage = {
  s_index : int;
  s_stateless : alu array;
  s_stateful : alu array;
  (* One output mux per PHV container: selects among all stateless outputs,
     all stateful outputs, and the container's incoming value. *)
  s_output_muxes : string array; (* helper names *)
}

type t = {
  d_depth : int;
  d_width : int;
  d_bits : Druzhba_util.Value.width;
  d_stages : stage array;
  d_helpers : (string, helper) Hashtbl.t; (* all helpers, keyed by name *)
  d_stateful_spec : Druzhba_alu_dsl.Ast.t;
  d_stateless_spec : Druzhba_alu_dsl.Ast.t;
}

let find_helper t name =
  match Hashtbl.find_opt t.d_helpers name with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Ir.find_helper: unknown helper '%s'" name)

let iter_helpers t f = Hashtbl.iter (fun _ h -> f h) t.d_helpers

(* --- Traversals ---------------------------------------------------------- *)

(* Capture-free substitution of variables by expressions (expressions have no
   binders).  Used by the optimizer's specializer/inliner and by the closure
   backend's compile-time beta reduction. *)
let rec subst_vars map (e : expr) : expr =
  match e with
  | Var x -> ( match List.assoc_opt x map with Some r -> r | None -> e)
  | Const _ | Mc _ | Phv _ | State _ -> e
  | Trunc a -> Trunc (subst_vars map a)
  | Unop (op, a) -> Unop (op, subst_vars map a)
  | Binop (op, a, b) -> Binop (op, subst_vars map a, subst_vars map b)
  | Cond (c, a, b) -> Cond (subst_vars map c, subst_vars map a, subst_vars map b)
  | Call (name, args) -> Call (name, List.map (subst_vars map) args)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Var _ | Mc _ | Phv _ | State _ -> acc
  | Trunc a -> fold_expr f acc a
  | Unop (_, a) -> fold_expr f acc a
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Cond (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

let rec fold_stmt f_expr acc (s : stmt) =
  match s with
  | Let (_, e) | Store (_, e) | Return e -> fold_expr f_expr acc e
  | If (c, a, b) ->
    let acc = fold_expr f_expr acc c in
    let acc = List.fold_left (fold_stmt f_expr) acc a in
    List.fold_left (fold_stmt f_expr) acc b

(* Machine-code names referenced by the description: all [Mc] nodes, plus the
   output-mux controls (their value is fetched by the simulator when the mux
   helper still has a live "ctrl" parameter).  These are the names
   [Machine_code.validate] requires; after SCC propagation the list is
   empty. *)
let required_names t =
  let collect acc e = match e with Mc name -> name :: acc | _ -> acc in
  let acc = ref [] in
  iter_helpers t (fun h -> acc := fold_expr collect !acc h.h_body);
  Array.iter
    (fun st ->
      let alu_names (a : alu) =
        acc := List.fold_left (fold_stmt collect) !acc a.a_body;
        acc := fold_expr collect !acc a.a_default_output
      in
      Array.iter alu_names st.s_stateless;
      Array.iter alu_names st.s_stateful;
      Array.iter
        (fun name ->
          let h = find_helper t name in
          if List.mem "ctrl" h.h_params then acc := name :: !acc)
        st.s_output_muxes)
    t.d_stages;
  List.sort_uniq String.compare !acc

(* Re-export of {!Machine_code.domain}, so [control_domains] plugs straight
   into [Machine_code.validate ~domains]. *)
type control_domain = Druzhba_machine_code.Machine_code.domain =
  | Selector of int (* valid values are [0, n) *)
  | Immediate (* any value of the datapath width *)

(* The domain of every machine-code control the (unoptimized) description
   requires.  Selector controls (muxes, opcodes) come from helper parameter
   counts; name-only controls (immediates, hole variables) accept any value
   of the datapath width.  Used to generate random-but-wellformed machine
   code for fuzzing and by the synthesis compiler to bound its search. *)
let control_domains t =
  required_names t
  |> List.map (fun name ->
         match Hashtbl.find_opt t.d_helpers name with
         | Some { h_ctrl = Some n; _ } -> (name, Selector n)
         | Some { h_ctrl = None; _ } | None -> (name, Immediate))

(* Total number of IR nodes (a proxy for generated-code size, reported by the
   Fig. 6 style comparisons and the benchmarks). *)
let size t =
  let count acc _ = acc + 1 in
  let n = ref 0 in
  iter_helpers t (fun h -> n := fold_expr count !n h.h_body);
  Array.iter
    (fun st ->
      let alu (a : alu) =
        n := List.fold_left (fold_stmt count) !n a.a_body;
        n := fold_expr count !n a.a_default_output
      in
      Array.iter alu st.s_stateless;
      Array.iter alu st.s_stateful)
    t.d_stages;
  !n

let helper_count t = Hashtbl.length t.d_helpers
