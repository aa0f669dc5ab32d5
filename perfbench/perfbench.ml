(* perfbench: the Fig. 3 benchmark runner.

     perfbench.exe --workload W --seed S --seconds R --trace 0|1

   Prints human-readable context and, as its last stdout line, one JSON
   object {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, measured with every observability
   switch off; with --trace 1 they are the per-layer ledger of a separate
   traced pass, which is also written to [out_dir] with the last traced
   instance's spans as a Chrome trace. See README.md. *)

open Perfbench_core

let out_dir = ".bench_out"

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Work.name) Work.workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Work.find v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some r, Some t when r >= 0. -> (w, s, r, t)
  | _ -> usage ()

(* Numbers are printed with every digit they have. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Names, units and versions are plain ASCII; %S adds the quotes. *)
let json_str s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed (ms : Ledger.metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Ledger.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str m.Ledger.m_name)
              (num m.Ledger.m_value) (json_str m.Ledger.m_unit))
          ms))

let write_file ~dir file contents =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat dir file) in
  output_string oc contents;
  close_out oc

let () =
  let w, run_seed, seconds, trace = parse_args () in
  let env_set = Work.hygiene () in
  let kernel0 = Work.ref_kernel () in
  let digest, warm = Work.warm_up w in
  let digest_ok = digest = w.Work.pinned_digest in
  Printf.printf "workload %s: n=%d beta=%g; warm-up at seed %d: %s\n" w.Work.name w.Work.n
    w.Work.beta Work.pinned_seed warm.Work.verdict;
  Printf.printf "transcript digest %s (%s)\n%!" digest
    (if digest_ok then "matches the pin" else "MISMATCH: pinned " ^ w.Work.pinned_digest);
  let seeds = Work.instance_seeds w ~run_seed in
  let r =
    if trace then Bench.per_layer w ~seeds ~seconds ~kernel_start:kernel0
    else Bench.end_to_end w ~seeds ~seconds
  in
  let metrics = r.Bench.metrics in
  List.iter print_endline r.Bench.log;
  if trace then begin
    let table = Ledger.render ~workload:w.Work.name metrics in
    print_string table;
    write_file ~dir:out_dir ("ledger-" ^ w.Work.name ^ ".txt") table;
    write_file ~dir:out_dir ("trace-" ^ w.Work.name ^ ".json")
      (Repro_obs.Trace.to_chrome_json r.Bench.events)
  end;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) r.Bench.problems;
  Printf.printf
    "{\"context\": {\"workload\": %s, \"run_seed\": %d, \"instance_seeds\": [%s], \"nproc\": %d, \"ocaml\": %s, \"domains\": %d, \"env_forced_off\": [%s], \"ref_kernel_s\": [%s, %s], \"digest\": %s}}\n"
    (json_str w.Work.name) run_seed
    (String.concat ", " (Array.to_list (Array.map string_of_int seeds)))
    (Domain.recommended_domain_count ()) (json_str Sys.ocaml_version)
    (Repro_util.Parallel.domains ())
    (String.concat ", " (List.map json_str env_set))
    (num kernel0) (num r.Bench.kernel_end) (json_str digest);
  (* The warm-up instance counts: a transcript that left its pin fails it. *)
  let warm_failed = Bool.to_int (not (warm.Work.ok && digest_ok)) in
  let failed = r.Bench.failed + warm_failed in
  print_endline
    (result_line ~correct:(failed = 0 && r.Bench.problems = [])
       ~attempted:(r.Bench.attempted + 1) ~failed metrics)
