(* The benchmark's own checks, on small instances (n = 64). *)

open Perfbench_core
module Json = Repro_util.Json
module Runner = Repro_core.Runner

let () = ignore (Work.hygiene ())

let small ?(beta = 0.1) ?(mode = Work.Lockstep) scheme =
  {
    Work.name = "test";
    scheme;
    n = 64;
    beta;
    mode;
    seeds_per_run = 1;
    pinned_digest = "";
  }

let owf = small Work.Owf
let snark = small Work.Snark
let partition = small ~mode:Work.Partition Work.Owf

let digest ?full ~timed w ~seed =
  let tap, finish = Work.transcript_tap ?full () in
  ignore (Work.run_instance ~tap ~timed w ~seed);
  finish ()

(* --- metric names --- *)

let valid_chars extra s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | c -> String.contains extra c)
       s

let declared section =
  let bench =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all |> Json.parse_exn
  in
  Json.member section bench |> Option.get |> Json.to_list |> Option.get
  |> List.map (fun m ->
         ( Option.get (Option.bind (Json.member "name" m) Json.to_string),
           Option.get (Option.bind (Json.member "unit" m) Json.to_string) ))

let check_metrics section (ms : Ledger.metric list) =
  List.iter
    (fun (x : Ledger.metric) ->
      Alcotest.(check bool) ("name " ^ x.Ledger.m_name) true (valid_chars "" x.Ledger.m_name);
      Alcotest.(check bool) ("unit of " ^ x.Ledger.m_name) true (valid_chars "/%" x.Ledger.m_unit);
      Alcotest.(check bool) ("finite " ^ x.Ledger.m_name) true (Float.is_finite x.Ledger.m_value))
    ms;
  Alcotest.(check (list (pair string string)))
    (section ^ " metrics are the ones BENCHMARK.json declares")
    (declared section)
    (List.map (fun (x : Ledger.metric) -> (x.Ledger.m_name, x.Ledger.m_unit)) ms)

let test_names () =
  let e = Bench.end_to_end owf ~seeds:[| 3 |] ~seconds:0. in
  check_metrics "end_to_end" e.Bench.metrics;
  let t = Bench.per_layer owf ~seeds:[| 3 |] ~seconds:0. ~kernel_start:0.3 in
  check_metrics "per_layer" t.Bench.metrics;
  Alcotest.(check (list string)) "traced pass is clean" [] t.Bench.problems

(* --- transparency and faithfulness --- *)

let test_functor_transparent () =
  List.iter
    (fun (label, w) ->
      Alcotest.(check string)
        (label ^ ": timing functor leaves the digest unchanged")
        (digest ~timed:false w ~seed:5) (digest ~timed:true w ~seed:5))
    [ ("owf", owf); ("snark", snark); ("partition", partition) ]

(* The benchmark's instances are the cells the rest of the repository runs. *)
let test_same_cells_as_runner () =
  List.iter
    (fun (label, w, protocol) ->
      Alcotest.(check string)
        (label ^ ": same transcript as Runner.run_digest")
        (snd (Runner.run_digest ~protocol ~n:64 ~beta:0.1 ~seed:5 ()))
        (digest ~full:true ~timed:false w ~seed:5))
    [ ("owf", owf, Runner.This_work_owf); ("snark", snark, Runner.This_work_snark) ];
  let tap, finish = Work.transcript_tap ~full:true () in
  ignore
    (Runner.run_attack_cell ~tap ~condition_name:"partition" ~protocol:Runner.This_work_owf
       ~strategy_name:"equivocate" ~n:64 ~beta:0.1 ~seed:5 ~expect_fail:false ());
  Alcotest.(check string) "partition: same transcript as Runner.run_attack_cell" (finish ())
    (digest ~full:true ~timed:false partition ~seed:5)

(* --- exact counts --- *)

let test_counts_repeat () =
  List.iter
    (fun (label, w) ->
      let seeds = [| 7; 11 |] in
      (* The first instance in a process pays one-time initialisation. *)
      ignore (Work.warm_up w);
      let a = Work.measure w ~seeds ~seconds:0. in
      let b = Work.measure w ~seeds ~seconds:0. in
      let exact (r : Work.run) =
        List.map
          (fun (seed, (s : Work.sample)) -> (seed, s.Work.alloc_words, s.Work.outcome.Work.counts))
          r.Work.per_seed
      in
      Alcotest.(check bool) (label ^ ": alloc and counts repeat exactly") true (exact a = exact b);
      let e1 = Bench.end_to_end w ~seeds ~seconds:0. in
      let e2 = Bench.end_to_end w ~seeds ~seconds:0. in
      let counts (r : Bench.result) =
        List.filter_map
          (fun (x : Ledger.metric) ->
            if List.mem x.Ledger.m_name [ "setup_s"; "instance_s"; "peak_rss_mb" ] then None
            else Some (x.Ledger.m_name, x.Ledger.m_value))
          r.Bench.metrics
      in
      Alcotest.(check (list (pair string (float 0.))))
        (label ^ ": count metrics repeat exactly") (counts e1) (counts e2))
    [ ("owf", owf); ("snark", snark); ("partition", partition) ]

(* --- instance seeds --- *)

let test_instance_seeds () =
  List.iter
    (fun (w : Work.workload) ->
      let a = Work.instance_seeds w ~run_seed:872541850 in
      Alcotest.(check (array int)) (w.Work.name ^ ": a pure function of the run seed") a
        (Work.instance_seeds w ~run_seed:872541850);
      Alcotest.(check int) (w.Work.name ^ ": K seeds") w.Work.seeds_per_run (Array.length a);
      Alcotest.(check bool) (w.Work.name ^ ": distinct, from the pool") true
        (List.length (List.sort_uniq compare (Array.to_list a)) = Array.length a
        && Array.for_all (fun s -> s >= 1 && s <= Work.seed_pool) a))
    Work.workloads

(* --- teeth --- *)

let test_teeth () =
  let w = small ~beta:0.45 Work.Owf in
  let r = Bench.end_to_end w ~seeds:[| 1 |] ~seconds:0. in
  Alcotest.(check (pair int int)) "beta 0.45: one attempted, one failed" (1, 1)
    (r.Bench.attempted, r.Bench.failed);
  Alcotest.(check int) "the failure is reported" 1 (List.length r.Bench.problems)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "metric names, units and declarations" `Quick test_names;
          Alcotest.test_case "timing functor keeps the transcript" `Quick
            test_functor_transparent;
          Alcotest.test_case "instances are the Runner cells" `Quick test_same_cells_as_runner;
          Alcotest.test_case "exact counts repeat at one domain" `Quick test_counts_repeat;
          Alcotest.test_case "instance seeds come from the pool" `Quick test_instance_seeds;
          Alcotest.test_case "beta 0.45 instance counts as failed" `Quick test_teeth;
        ] );
    ]
