(* Timing functor over an SRDS scheme: every operation Fig. 3 calls is
   wrapped in a [Repro_obs.Trace] span named [srds.<op>] (category "srds"),
   so the traced run attributes crypto time without any span inside lib/.
   Results are passed through untouched: the transcript of an instance is
   the same with or without the wrapper, which the benchmark checks. *)

(* Inputs offered to and kept by [aggregate1], over every instantiation:
   the filter's useful-work ratio. Reset per traced instance. *)
let offered = ref 0
let kept = ref 0

let reset () =
  offered := 0;
  kept := 0

module Make (S : Repro_core.Srds_intf.SCHEME) : Repro_core.Srds_intf.SCHEME =
struct
  include S

  let span name f = Repro_obs.Trace.span ~cat:"srds" name f
  let keygen pp master rng ~index =
    span "srds.keygen" (fun () -> S.keygen pp master rng ~index)

  let sign pp sk ~index ~msg = span "srds.sign" (fun () -> S.sign pp sk ~index ~msg)

  let aggregate1 pp ~vks ~msg sigs =
    span "srds.aggregate1" (fun () ->
        let out = S.aggregate1 pp ~vks ~msg sigs in
        offered := !offered + List.length sigs;
        kept := !kept + List.length out;
        out)

  let aggregate2 pp ~msg sigs =
    span "srds.aggregate2" (fun () -> S.aggregate2 pp ~msg sigs)

  let verify pp ~vks ~msg sg = span "srds.verify" (fun () -> S.verify pp ~vks ~msg sg)

  let verify_partial pp ~vks ~msg sg =
    span "srds.verify_partial" (fun () -> S.verify_partial pp ~vks ~msg sg)
end
