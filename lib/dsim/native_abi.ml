(* The registration ABI between the host and Dynlinked native pipeline
   modules.

   A module emitted by {!Druzhba_pipeline.Emit.native_source} ends in one
   [plugin] value of the record below; it is not a compilation unit on its
   own.  {!Native_substrate} wraps one or more emitted modules into a unit
   whose only side effect is one call to {!register} with every
   (content key, plugin) pair it holds, compiles that unit out-of-process
   into a `.cmxs`, and loads it with [Dynlink.loadfile_private].  The host
   performs the load under a global mutex and immediately {!take}s the
   slot, so concurrent domains never observe each other's registrations.

   The record is deliberately first-order — int arrays and plain
   functions — so the only thing the plugin and the host must agree on
   is this one module's cmi.  Bump {!version} whenever the record layout or
   the registration call changes: it is folded into the build-cache content
   address, so stale `.cmxs` artifacts from an older ABI are never loaded. *)

let version = 3

type plugin = {
  np_depth : int;
  np_width : int;
  np_state_names : string array;
      (* stateful-ALU names, stage-major — one per state row of [np_alloc] *)
  np_stage_bases : int array;
      (* base state-row index per stage: row of (stage s, alu j) =
         np_stage_bases.(s) + j *)
  np_alloc : unit -> int array array;
      (* fresh zeroed state rows, one per stateful ALU, stage-major; row
         length = max 1 state_size *)
  np_exec_stage : int array array -> int -> int array -> int array -> unit;
      (* [exec_stage state s cur nxt]: run stage [s] on row s of the flat
         (depth+1) x width register file [cur], writing row s+1 of [nxt] *)
}

let slot : (string * plugin) list ref = ref []
let register plugins = slot := plugins

let take () =
  let plugins = !slot in
  slot := [];
  plugins
