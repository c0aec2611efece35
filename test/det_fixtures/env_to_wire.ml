(* Seeded determinism defect: an environment read shipped in a frame
   payload. dmw_det must flag the Frame.write call (D-wire) with the
   env class. *)

let leak fd =
  let tag = Option.value (Sys.getenv_opt "FIXTURE_TAG") ~default:"" in
  Dmw_net.Frame.write fd ~src:0 ~dst:1 tag
