(* The four campaign workloads and the per-campaign scratch they run in.

   A run of a workload is a closed loop of one client: campaigns run one
   after another in one process at [--jobs 1], and inside a campaign each
   trial starts when the previous one has finished.  A run is [campaigns]
   campaigns of [trials] trials each, campaign k under the master seed
   [Prng.derive seed k]; README.md records why each workload exists. *)

module Prng = Druzhba_util.Prng
module Campaign = Druzhba_campaign.Campaign
module Native_substrate = Druzhba_dsim.Native_substrate

type t = {
  name : string;
  substrate : string; (* campaign substrate selector *)
  phvs : int;
  trials : int; (* per campaign *)
  checkpoint_every : int option; (* Some n: checkpoint to disk every n trials *)
  hunt : bool; (* coverage mode, an on-disk corpus and the planted optimizer bug *)
  native_cold : bool; (* an empty native build cache for every campaign *)
  nominal_s : float;
      (* roughly the CPU time of one campaign on the shared 2-core x86-64
         host the benchmark was tuned on; it fixes how many campaigns fill
         [--seconds], so a run's work is a pure function of (workload,
         seconds) and the same on every commit *)
}

let all =
  [
    { name = "rmt-short"; substrate = "rmt"; phvs = 20; trials = 512; checkpoint_every = Some 16;
      hunt = false; native_cold = false; nominal_s = 0.45 };
    { name = "rmt-long"; substrate = "rmt"; phvs = 1000; trials = 100; checkpoint_every = None;
      hunt = false; native_cold = false; nominal_s = 1.4 };
    { name = "hunt"; substrate = "all"; phvs = 100; trials = 250; checkpoint_every = None;
      hunt = true; native_cold = false; nominal_s = 0.65 };
    { name = "native-cold"; substrate = "native"; phvs = 100; trials = 30; checkpoint_every = None;
      hunt = false; native_cold = true; nominal_s = 2.6 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Campaigns per run: at least two, and at least 200 trials, so that every
   run has two tail blocks. *)
let campaigns w ~seconds =
  max (max 2 ((200 + w.trials - 1) / w.trials)) (int_of_float (Float.round (seconds /. w.nominal_s)))

let master_seed ~seed k = Prng.derive seed k

(* --- Scratch --------------------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let files dir = if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []

let bytes_under dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (files dir)

(* Everything one campaign writes lives under [dir]: its checkpoint, its
   corpus and its native build cache.  [prepare] empties it, points the
   native cache at it and drops the in-process plugin memo, so a cold
   campaign never sees an artifact an earlier campaign built — and the
   default temporary cache is never touched. *)
type scratch = { dir : string; checkpoint : string option; corpus : string option; cache : string }

let prepare w ~root k =
  let dir = Filename.concat root (Printf.sprintf "campaign-%d" k) in
  remove_tree dir;
  mkdir_p dir;
  let cache = Filename.concat dir "native-cache" in
  if w.native_cold then begin
    Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" cache;
    Native_substrate.clear_memo ()
  end;
  {
    dir;
    checkpoint = Option.map (fun _ -> Filename.concat dir "campaign.ck") w.checkpoint_every;
    corpus = (if w.hunt then Some (Filename.concat dir "corpus") else None);
    cache;
  }

(* Distinct native modules the campaign built: one [.cmxs] per content key
   lands in its private cache. *)
let modules_built s = List.length (List.filter (fun f -> Filename.check_suffix f ".cmxs") (files s.cache))

let config ?hook w ~master_seed (s : scratch) =
  Campaign.config ~trials:w.trials ~jobs:1 ~master_seed ~substrate:w.substrate ~phvs:w.phvs
    ?checkpoint_every:w.checkpoint_every ~coverage:w.hunt ?corpus_dir:s.corpus
    ~sabotage_pass:w.hunt ?hook ()
