(* How fast the host is running right now, read from a reference process.

   The benchmark times the program in CPU seconds, which leaves out the
   time it waits for a CPU, but a shared host's CPU second is not constant
   either: other tenants' load on the same cores and caches makes every
   instruction slower, by up to 2x over tens of minutes and by 10-20%
   within seconds.  So the benchmark keeps [refslice.exe --serve] beside it
   and samples that fixed reference work every [every_s] seconds while the
   program runs, where it sees the same host as the trials around it.  A
   timing is then scaled to a nominal host, on which one reference slice
   takes [nominal_slice_s] CPU seconds, by the slices sampled just before,
   during and just after it: a time measured on a host twice as slow as
   that is halved.  The reference's work never changes, so a change to the
   program moves the scaled figures as much as it moves the raw ones. *)

let nominal_slice_s = 0.005
let slices_per_sample = 2
let every_s = 0.2

(* One sample: the wall-clock interval it took and its slices' CPU times. *)
type sample = { at : float; until : float; times : float list }

type t = {
  pid : int;
  requests : out_channel;
  replies : in_channel;
  mutable samples : sample list; (* newest first *)
  mutable timeline : sample array option; (* [samples] oldest first, once asked for *)
  mutable overhead : float; (* CPU seconds this process spent asking for samples *)
}

let start exe =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--serve" |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  {
    pid;
    requests = Unix.out_channel_of_descr req_w;
    replies = Unix.in_channel_of_descr rep_r;
    samples = [];
    timeline = None;
    overhead = 0.;
  }

(* Closing its input ends the reference process; waits until it has. *)
let stop t =
  close_out_noerr t.requests;
  close_in_noerr t.replies;
  let rec wait () = try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait () in
  wait ()

let with_reference exe f =
  let t = start exe in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

let own_cpu () =
  let c = Unix.times () in
  c.Unix.tms_utime +. c.Unix.tms_stime

(* Times [slices_per_sample] reference slices now.  While they run this
   process waits on a pipe; the little CPU time that costs it is added to
   [overhead], for the caller to leave out of its own timings. *)
let sample t =
  let c0 = own_cpu () and at = Unix.gettimeofday () in
  Printf.fprintf t.requests "%d\n%!" slices_per_sample;
  let times =
    match In_channel.input_line t.replies with
    | None -> []
    | Some line -> List.filter_map float_of_string_opt (String.split_on_char ' ' (String.trim line))
  in
  if List.length times <> slices_per_sample then failwith "Hostspeed.sample: the reference process gave no answer";
  t.samples <- { at; until = Unix.gettimeofday (); times } :: t.samples;
  t.timeline <- None;
  t.overhead <- t.overhead +. (own_cpu () -. c0)

(* Samples if [every_s] seconds have passed since the last sample. *)
let maybe_sample t =
  match t.samples with
  | last :: _ when Unix.gettimeofday () -. last.until < every_s -> ()
  | _ -> sample t

let overhead t = t.overhead
let all_slices t = List.concat_map (fun s -> s.times) t.samples
let slices t = List.length (all_slices t)

(* The median halfway between the two middle slices of an even count: a
   window holds only a few slices, and the nearest-rank median would lean
   towards the faster of them, the more so the noisier the host. *)
let middle slices =
  let a = Stats.sorted (Array.of_list slices) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let slowdown_of slices = middle slices /. nominal_slice_s

(* The median slice time over the run. *)
let slice_s t =
  if t.samples = [] then invalid_arg "Hostspeed.slice_s: no samples";
  middle (all_slices t)

(* How many times slower than the nominal host this one ran, over the run. *)
let slowdown t = slowdown_of (all_slices t)

(* The first index in [0, n) where the monotone [p] holds, or [n]. *)
let first n p =
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if p mid then go lo mid else go (mid + 1) hi
  in
  go 0 n

(* Samples beyond the two that bracket an interval, on either side, whose
   slices also count towards its slowdown: one sample alone is too noisy. *)
let reach = 1

(* How many times slower than the nominal host this one ran over the
   wall-clock interval [lo, hi], from [timeline] (samples oldest first): the
   median of the slices from the last sample that ended by [lo] to the
   first that started at or after [hi], widened by [reach] samples on
   either side. *)
let slowdown_over timeline lo hi =
  let n = Array.length timeline in
  if n = 0 then invalid_arg "Hostspeed.slowdown_over: no samples";
  let a = max 0 (first n (fun i -> timeline.(i).until > lo) - 1 - reach) in
  let b = min (n - 1) (first n (fun i -> timeline.(i).at >= hi) + reach) in
  slowdown_of (List.concat_map (fun s -> s.times) (Array.to_list (Array.sub timeline a (b - a + 1))))

let around t lo hi =
  let timeline =
    match t.timeline with
    | Some tl -> tl
    | None ->
      let tl = Array.of_list (List.rev t.samples) in
      t.timeline <- Some tl;
      tl
  in
  slowdown_over timeline lo hi
