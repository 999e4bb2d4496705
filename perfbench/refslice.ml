(* The host-speed reference: a fixed amount of OCaml work of the same kind a
   campaign does, timed slice by slice in CPU time.

     refslice.exe --serve   read a count N a line, answer with the CPU
                            seconds of N slices on one line

   Each slice generates random expression trees, compiles them to closures,
   and evaluates both forms over a stream of inputs, counting the results in
   a hash table: allocation, pointer chasing and indirect calls, as in the
   pipeline interpreter and its closure compiler.  The work is the same on
   every commit and every host; only its time changes with the host.  One
   untimed slice warms the process up first.  The benchmark runs it as a
   process of its own, so nothing the program under test does to its heap
   or GC settings reaches it, and samples it between campaigns ({!Hostspeed}).
   In serve mode it exits when its standard input closes. *)

type e =
  | K of int
  | V of int
  | Add of e * e
  | Sub of e * e
  | Xor of e * e
  | Lt of e * e
  | Mux of e * e * e

let mask = 0xffff
let vars = 8
let next s = ((s * 1103515245) + 12345) land 0x3fffffff

let rec gen depth s =
  let s = next s in
  if depth <= 0 then if s land 1 = 0 then (K ((s lsr 3) land mask), s) else (V ((s lsr 3) mod vars), s)
  else
    let a, s1 = gen (depth - 1) s in
    let b, s2 = gen (depth - 1 - (s land 1)) s1 in
    match (s lsr 4) mod 5 with
    | 0 -> (Add (a, b), s2)
    | 1 -> (Sub (a, b), s2)
    | 2 -> (Xor (a, b), s2)
    | 3 -> (Lt (a, b), s2)
    | _ ->
      let c, s3 = gen (depth - 2) s2 in
      (Mux (c, a, b), s3)

let rec eval env = function
  | K k -> k
  | V i -> env.(i)
  | Add (a, b) -> (eval env a + eval env b) land mask
  | Sub (a, b) -> (eval env a - eval env b) land mask
  | Xor (a, b) -> eval env a lxor eval env b
  | Lt (a, b) -> if eval env a < eval env b then 1 else 0
  | Mux (c, a, b) -> if eval env c <> 0 then eval env a else eval env b

let rec compile = function
  | K k -> fun _ -> k
  | V i -> fun env -> env.(i)
  | Add (a, b) ->
    let a = compile a and b = compile b in
    fun env -> (a env + b env) land mask
  | Sub (a, b) ->
    let a = compile a and b = compile b in
    fun env -> (a env - b env) land mask
  | Xor (a, b) ->
    let a = compile a and b = compile b in
    fun env -> a env lxor b env
  | Lt (a, b) ->
    let a = compile a and b = compile b in
    fun env -> if a env < b env then 1 else 0
  | Mux (c, a, b) ->
    let c = compile c and a = compile a and b = compile b in
    fun env -> if c env <> 0 then a env else b env

let programs = 48
let inputs = 128

(* One slice; returns a checksum so the work cannot be skipped. *)
let slice () =
  let s = ref 42 in
  let exprs =
    Array.init programs (fun _ ->
        let e, s' = gen 7 !s in
        s := s';
        e)
  in
  let counts = Hashtbl.create 4096 in
  let sum = ref 0 in
  Array.iter
    (fun e ->
      let f = compile e in
      for _ = 1 to inputs do
        let env =
          Array.init vars (fun _ ->
              s := next !s;
              (!s lsr 5) land mask)
        in
        let r = eval env e in
        if f env <> r then failwith "refslice: closure and tree disagree";
        let n = Option.value (Hashtbl.find_opt counts r) ~default:0 in
        Hashtbl.replace counts r (n + 1);
        sum := !sum + r
      done)
    exprs;
  !sum + Hashtbl.length counts

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed_slice expected =
  let t0 = cpu () in
  let c = slice () in
  let t1 = cpu () in
  if c <> expected then failwith "refslice: checksum changed between slices";
  t1 -. t0

let () =
  match Sys.argv with
  | [| _; "--serve" |] ->
    let expected = slice () in
    let rec serve () =
      match In_channel.input_line stdin with
      | None -> ()
      | Some line ->
        let n = int_of_string (String.trim line) in
        let times = List.init n (fun _ -> timed_slice expected) in
        print_string (String.concat " " (List.map (Printf.sprintf "%.9f") times) ^ "\n");
        flush stdout;
        serve ()
    in
    serve ()
  | _ ->
    prerr_endline "usage: refslice.exe --serve";
    exit 2
