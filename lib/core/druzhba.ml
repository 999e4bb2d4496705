(* Druzhba: a programmable-switch hardware simulator for testing compilers
   (Wong, Varma, Sivaraman, 2020 — arXiv:2005.02310).

   This module is the library's front door: it re-exports every component
   under one namespace and packages the two end-to-end workflows the paper
   describes —

   - {!simulate}: dgen + dsim.  Generate the pipeline description for a
     hardware specification (depth, width, ALU DSL descriptions), apply the
     SCC-propagation / inlining optimizations, load a machine-code program,
     and run PHVs through it (Fig. 1, §3).

   - {!Workflow}: the compiler-testing loop of Fig. 5.  Compile a high-level
     packet program (or take compiler-produced machine code), simulate random
     traffic, and check the output trace against the program specification,
     classifying failures as the case study does (§5.2). *)

let version = "1.0.0"

(* --- Component re-exports ------------------------------------------------- *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng
module Atomic_file = Druzhba_util.Atomic_file
module Json = Druzhba_util.Json
module Alu_dsl = struct
  module Ast = Druzhba_alu_dsl.Ast
  module Lexer = Druzhba_alu_dsl.Lexer
  module Parser = Druzhba_alu_dsl.Parser
  module Analysis = Druzhba_alu_dsl.Analysis
  module Printer = Druzhba_alu_dsl.Printer
end

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Names = Druzhba_pipeline.Names
module Emit = Druzhba_pipeline.Emit
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Phv = Druzhba_dsim.Phv
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Substrate = Druzhba_dsim.Substrate
module Native_abi = Druzhba_dsim.Native_abi
module Native_substrate = Druzhba_dsim.Native_substrate
module Backends = Druzhba_dsim.Backends
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Debugger = Druzhba_dsim.Debugger
module Budget = Druzhba_dsim.Budget
module Faults = Druzhba_dsim.Faults
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Verify = Druzhba_fuzz.Verify

(* Multicore differential campaigns: {!Campaign.run} shards trials over
   OCaml 5 domains; {!Campaign.Oracle} is the cross-backend differential
   oracle; {!Campaign.Shrink} minimizes counterexamples. *)
module Campaign = struct
  module Runner = Druzhba_campaign.Runner
  module Oracle = Druzhba_campaign.Oracle
  module Shrink = Druzhba_campaign.Shrink
  module Report = Druzhba_campaign.Report
  module Checkpoint = Druzhba_campaign.Checkpoint
  module Exit_code = Druzhba_campaign.Exit_code
  include Druzhba_campaign.Campaign
end
module Dataflow = Druzhba_analysis.Dataflow
module Lint = Druzhba_analysis.Lint
module Symbolic = Druzhba_analysis.Symbolic
module Equiv = Druzhba_analysis.Equiv

module Compiler = struct
  module Ast = Druzhba_compiler.Ast
  module Frontend = Druzhba_compiler.Frontend
  module Checker = Druzhba_compiler.Checker
  module Semantics = Druzhba_compiler.Semantics
  module Predicate = Druzhba_compiler.Predicate
  module Match_atom = Druzhba_compiler.Match_atom
  module Codegen = Druzhba_compiler.Codegen
  module Synth = Druzhba_compiler.Synth
  module Testing = Druzhba_compiler.Testing
  module Vet = Druzhba_compiler.Vet
end

module Spec = Druzhba_spec.Spec

module Drmt = struct
  module P4 = Druzhba_drmt.P4
  module Dag = Druzhba_drmt.Dag
  module Scheduler = Druzhba_drmt.Scheduler
  module Entries = Druzhba_drmt.Entries
  module Sim = Druzhba_drmt.Sim
end

(* --- dgen + dsim in one call (Fig. 1) -------------------------------------- *)

type simulation = {
  sim_description : Ir.t; (* the (possibly optimized) pipeline description *)
  sim_trace : Trace.t;
}

(* Generates a pipeline for [stateful]/[stateless] ALUs at [depth] x [width],
   optimizes it at [level] for the given machine code, and simulates [phvs]
   random PHVs from [seed].

   @raise Machine_code.Missing when required pairs are absent. *)
let simulate ?(level = Optimizer.Scc) ?(bits = 32) ?(seed = 0xD52ba) ~depth ~width ~stateful
    ~stateless ~mc ~phvs () =
  let desc =
    Dgen.generate (Dgen.config ~depth ~width ~bits ()) ~stateful ~stateless
  in
  let optimized = Optimizer.apply ~level ~mc desc in
  let inputs = Traffic.phvs (Traffic.create ~seed ~width ~bits) phvs in
  { sim_description = optimized; sim_trace = Engine.run optimized ~mc ~inputs }

(* --- The compiler-testing workflow (Fig. 5) --------------------------------- *)

module Workflow = struct
  type report = {
    program : string;
    machine_code_pairs : int;
    outcome : Fuzz.outcome;
  }

  let pp_report ppf r =
    Fmt.pf ppf "%-20s %4d pairs  %a" r.program r.machine_code_pairs Fuzz.pp_outcome r.outcome

  (* Compiles [source] with the rule-based backend for [target] and runs the
     fuzzing equivalence check on [phvs] random PHVs. *)
  let test_program ?level ?seed ?(phvs = 1000) ~target source =
    let program = Druzhba_compiler.Frontend.parse source in
    match Druzhba_compiler.Codegen.compile ~target program with
    | Error e -> Error e
    | Ok compiled ->
      Ok
        {
          program = program.Druzhba_compiler.Ast.name;
          machine_code_pairs = Machine_code.cardinal compiled.Druzhba_compiler.Codegen.c_mc;
          outcome = Druzhba_compiler.Testing.check ?level ?seed ~n:phvs compiled;
        }

  (* Tests already-compiled machine code (the paper's normal mode: the
     compiler under test produced [mc] for [compiled]'s program). *)
  let test_machine_code ?level ?seed ?(phvs = 1000) (compiled : Druzhba_compiler.Codegen.compiled)
      ~mc =
    let compiled = { compiled with Druzhba_compiler.Codegen.c_mc = mc } in
    {
      program = compiled.Druzhba_compiler.Codegen.c_program.Druzhba_compiler.Ast.name;
      machine_code_pairs = Machine_code.cardinal mc;
      outcome = Druzhba_compiler.Testing.check ?level ?seed ~n:phvs compiled;
    }
end
