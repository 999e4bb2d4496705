(* In-memory span recorder for the traced run.

   A span is a named interval with the span that was open when it started
   as its parent.  Spans are appended to growable arrays while the traced
   run executes and are only read once it ends, so recording costs two
   clock reads and an array write per span. *)

type span = { name : string; start : float; stop : float; parent : int (* -1 for a root *) }

type t = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable len : int;
  mutable open_ : int list; (* innermost first *)
}

let create () =
  { names = Array.make 256 ""; starts = Array.make 256 0.; stops = Array.make 256 0.;
    parents = Array.make 256 (-1); len = 0; open_ = [] }

let grow t =
  let n = 2 * Array.length t.names in
  let extend a fill = Array.append a (Array.make (n - Array.length a) fill) in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.parents <- extend t.parents (-1)

(* Runs [f] inside a span named [name].  The span is closed even when [f]
   raises, so a trial that crashes still leaves a well-formed tree. *)
let with_ t name f =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.open_ <- id :: t.open_;
  t.starts.(id) <- Unix.gettimeofday ();
  let close () =
    t.stops.(id) <- Unix.gettimeofday ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t =
  List.init t.len (fun i ->
      { name = t.names.(i); start = t.starts.(i); stop = t.stops.(i); parent = t.parents.(i) })

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   direct children cover. *)
let self_times (spans : span list) : (span * float) list =
  let arr = Array.of_list spans in
  let children = Array.make (Array.length arr) [] in
  Array.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    arr;
  Array.to_list
    (Array.mapi
       (fun i s -> (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i)))
       arr)

(* Self time summed per span name, in first-seen order. *)
let self_by_name spans : (string * float) list =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.add tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Time inside [lo, hi] that no root span covers. *)
let unattributed ~lo ~hi spans =
  let roots = List.filter_map (fun s -> if s.parent < 0 then Some (s.start, s.stop) else None) spans in
  hi -. lo -. covered ~lo ~hi roots
