(* Seeded determinism defect: a physical-equality test recorded in the
   typed audit record. Addresses vary run to run, so dmw_det must flag
   the Audit.log call (D-audit) with the physeq class. *)

let note audit a b =
  let same = a == b in
  Dmw_core.Audit.log audit ~task:0 ~description:"alias" ~ok:same
