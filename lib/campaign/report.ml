(* Machine-readable campaign reports: the shared JSON codec
   ({!Druzhba_util.Json}) plus the PHV encoding the campaign records use.
   Nothing environmental (wall time, hostnames, job counts) is ever put in
   a report — the acceptance bar is that a campaign report for a fixed
   master seed is byte-identical whatever [--jobs] was. *)

include Druzhba_util.Json

let phv (p : Druzhba_dsim.Phv.t) = List (Array.to_list (Array.map (fun v -> Int v) p))
