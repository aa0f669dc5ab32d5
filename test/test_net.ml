(* Tests for the synchronous network simulator, metrics, and the protocol
   engine. *)

module Network = Repro_net.Network
module Metrics = Repro_net.Metrics
module Engine = Repro_net.Engine
module Wire = Repro_net.Wire

let test_delivery_next_round () =
  let net = Network.create ~n:3 ~corrupt:[] () in
  let got = Array.make 3 [] in
  let handler p ~round ~inbox =
    got.(p) <- got.(p) @ List.map (fun (m : Wire.msg) -> (round, m.src, Bytes.to_string m.payload)) inbox;
    if round = 0 && p = 0 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "hi")
  in
  Network.run net ~rounds:3 (Array.init 3 (fun p -> Some (handler p)));
  Alcotest.(check (list (triple int int string))) "delivered round 1"
    [ (1, 0, "hi") ] got.(1);
  Alcotest.(check (list (triple int int string))) "nothing to 2" [] got.(2)

let test_metrics_accounting () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"x" (Bytes.make 10 'a');
      Network.send net ~src:0 ~dst:2 ~tag:"x" (Bytes.make 20 'a')
    end
  in
  Network.run net ~rounds:2 (Array.init 4 (fun p -> Some (handler p)));
  let m = Network.metrics net in
  (* size = tag(1) + payload + 4 *)
  Alcotest.(check int) "sender bytes" (15 + 25) (Metrics.party_bytes_sent m 0);
  Alcotest.(check int) "receiver bytes" 15 (Metrics.party_bytes m 1);
  Alcotest.(check int) "locality sender" 2 (Metrics.party_locality m 0);
  Alcotest.(check int) "locality idle" 0 (Metrics.party_locality m 3);
  Alcotest.(check int) "rounds" 2 (Metrics.rounds m)

let test_report_excludes_corrupt () =
  let net = Network.create ~n:3 ~corrupt:[ 2 ] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.make 5 'x')
  in
  Network.run net ~rounds:2 (Array.init 3 (fun p -> if p = 2 then None else Some (handler p)));
  let r = Metrics.report ~include_party:(Network.is_honest net) (Network.metrics net) in
  Alcotest.(check int) "max bytes" 10 r.Metrics.max_bytes

let test_rushing_adversary_sees_staged () =
  let net = Network.create ~n:3 ~corrupt:[ 2 ] () in
  let seen = ref [] in
  let adversary =
    {
      Network.adv_name = "spy";
      adv_step =
        (fun net ~round ~honest_staged ->
          if round = 0 then begin
            seen := List.map (fun (m : Wire.msg) -> Bytes.to_string m.payload) honest_staged;
            (* echo what party 0 sent, immediately, to party 1 *)
            List.iter
              (fun (m : Wire.msg) ->
                Network.send net ~src:2 ~dst:1 ~tag:"echo" m.payload)
              honest_staged
          end);
    }
  in
  let got = ref [] in
  let handler p ~round ~inbox =
    List.iter
      (fun (m : Wire.msg) -> if p = 1 then got := (round, m.tag, Bytes.to_string m.payload) :: !got)
      inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "secret")
  in
  Network.run net ~adversary ~rounds:2
    (Array.init 3 (fun p -> if p = 2 then None else Some (handler p)));
  Alcotest.(check (list string)) "adversary saw" [ "secret" ] !seen;
  (* both original and echo arrive in round 1 *)
  Alcotest.(check int) "both delivered" 2 (List.length !got)

let test_adversary_cannot_impersonate () =
  (* Channels are authenticated: during the adversary's turn, a send with
     an honest src must be rejected; corrupt srcs still go through. *)
  let net = Network.create ~n:4 ~corrupt:[ 3 ] () in
  let adversary =
    {
      Network.adv_name = "imposter";
      adv_step =
        (fun net ~round ~honest_staged:_ ->
          if round = 0 then begin
            Alcotest.check_raises "honest src rejected"
              (Invalid_argument
                 "Network.send: adversary send from honest src rejected")
              (fun () ->
                Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "x"));
            Network.send net ~src:3 ~dst:1 ~tag:"t" (Bytes.of_string "y")
          end);
    }
  in
  let got = ref [] in
  let handler p ~round:_ ~inbox =
    if p = 1 then
      got :=
        !got @ List.map (fun (m : Wire.msg) -> (m.src, Bytes.to_string m.payload)) inbox
  in
  Network.run net ~adversary ~rounds:2
    (Array.init 4 (fun p -> if p = 3 then None else Some (handler p)));
  (* the impersonation was rejected, the corrupt-src send delivered *)
  Alcotest.(check (list (pair int string))) "only corrupt mail" [ (3, "y") ] !got;
  (* outside the adversary's turn honest sends still work (next round) *)
  let handler2 p ~round ~inbox =
    ignore inbox;
    if p = 0 && round = 2 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.of_string "later")
  in
  Network.run net ~adversary ~rounds:1
    (Array.init 4 (fun p -> if p = 3 then None else Some (handler2 p)))

let test_flush_drops_in_flight () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let received = ref 0 in
  let handler p ~round ~inbox =
    received := !received + List.length inbox;
    if round = 0 && p = 0 then Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty
  in
  (* run only the sending round, then flush before delivery is consumed *)
  Network.run net ~rounds:1 (Array.init 2 (fun p -> Some (handler p)));
  Network.flush net;
  Network.run net ~rounds:1 (Array.init 2 (fun p -> Some (handler p)));
  Alcotest.(check int) "nothing received" 0 !received

(* --- Engine: a 2-round ping/pong across two instances --- *)

let test_engine_multiplexing () =
  let net = Network.create ~n:4 ~corrupt:[] () in
  let log = ref [] in
  (* instance "a": 0 <-> 1; instance "b": 2 <-> 3. Same tag namespace. *)
  let mk_machine me peer inst =
    {
      Engine.m_send =
        (fun ~round ->
          if round = 0 then [ (peer, Bytes.of_string (Printf.sprintf "%s-ping-%d" inst me)) ]
          else []);
      m_recv =
        (fun ~round msgs ->
          List.iter
            (fun (src, payload) ->
              log := (inst, me, round, src, Bytes.to_string payload) :: !log)
            msgs);
    }
  in
  let machines p =
    match p with
    | 0 -> [ ("a", mk_machine 0 1 "a") ]
    | 1 -> [ ("a", mk_machine 1 0 "a") ]
    | 2 -> [ ("b", mk_machine 2 3 "b") ]
    | 3 -> [ ("b", mk_machine 3 2 "b") ]
    | _ -> []
  in
  Engine.run net ~tag:"test" ~rounds:1 ~machines ();
  let entries = List.sort compare !log in
  (* every party got exactly its peer's ping for its own instance, round 0 *)
  let expected =
    List.sort compare
      [
        ("a", 0, 0, 1, "a-ping-1");
        ("a", 1, 0, 0, "a-ping-0");
        ("b", 2, 0, 3, "b-ping-3");
        ("b", 3, 0, 2, "b-ping-2");
      ]
  in
  Alcotest.(check int) "entry count" 4 (List.length entries);
  Alcotest.(check bool) "contents" true (entries = expected)

let test_engine_instance_isolation () =
  (* A message for instance "a" must never reach machine "b" even on the
     same party. *)
  let net = Network.create ~n:2 ~corrupt:[] () in
  let b_got = ref 0 in
  let machines p =
    match p with
    | 0 ->
      [
        ( "a",
          {
            Engine.m_send = (fun ~round -> if round = 0 then [ (1, Bytes.of_string "x") ] else []);
            m_recv = (fun ~round:_ _ -> ());
          } );
      ]
    | 1 ->
      [
        ( "a",
          { Engine.m_send = (fun ~round:_ -> []); m_recv = (fun ~round:_ _ -> ()) } );
        ( "b",
          {
            Engine.m_send = (fun ~round:_ -> []);
            m_recv = (fun ~round:_ msgs -> b_got := !b_got + List.length msgs);
          } );
      ]
    | _ -> []
  in
  Engine.run net ~tag:"iso" ~rounds:1 ~machines ();
  Alcotest.(check int) "b received nothing" 0 !b_got

let test_engine_rounds_observed () =
  (* m_recv must be called once per completed round even with no traffic. *)
  let net = Network.create ~n:1 ~corrupt:[] () in
  let rounds_seen = ref [] in
  let machines _ =
    [
      ( "solo",
        {
          Engine.m_send = (fun ~round:_ -> []);
          m_recv = (fun ~round msgs -> if msgs = [] then rounds_seen := round :: !rounds_seen);
        } );
    ]
  in
  Engine.run net ~tag:"r" ~rounds:3 ~machines ();
  Alcotest.(check (list int)) "all rounds ticked" [ 0; 1; 2 ] (List.sort compare !rounds_seen)

let test_tag_grouping () =
  List.iter
    (fun (tag, expected) ->
      Alcotest.(check string) tag expected (Metrics.tag_group tag))
    [
      ("aggr-ba-2/15", "aggr-ba");
      ("aggr-ba-3/4", "aggr-ba");
      ("sig-ba", "sig-ba");
      ("boost-x0", "boost-x");
      ("aecomm/pair-ba", "aecomm/pair-ba");
      ("aecomm/cert-x3", "aecomm/cert-x");
      ("elect/up/2", "elect/up");
      ("supreme-ba/ba", "supreme-ba");
    ]

let test_tag_breakdown_accumulates () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"aggr-ba-1/3" (Bytes.make 10 'a');
      Network.send net ~src:0 ~dst:1 ~tag:"aggr-ba-2/5" (Bytes.make 20 'a');
      Network.send net ~src:0 ~dst:1 ~tag:"sig-ba" (Bytes.make 5 'a')
    end
  in
  Network.run net ~rounds:2 (Array.init 2 (fun p -> Some (handler p)));
  let bd = Metrics.tag_breakdown (Network.metrics net) in
  (match List.assoc_opt "aggr-ba" bd with
  | Some b -> Alcotest.(check bool) "aggr grouped" true (b > 30)
  | None -> Alcotest.fail "missing aggr-ba group");
  Alcotest.(check bool) "sig present" true (List.mem_assoc "sig-ba" bd);
  (* sorted descending *)
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (desc bd)

let test_report_empty_selection () =
  (* Selecting no parties (e.g. everyone corrupt) must yield zeros, never
     NaN, while the network-wide figures survive. *)
  let net = Network.create ~n:3 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then
      Network.send net ~src:0 ~dst:1 ~tag:"t" (Bytes.make 5 'x')
  in
  Network.run net ~rounds:2 (Array.init 3 (fun p -> Some (handler p)));
  let r = Metrics.report ~include_party:(fun _ -> false) (Network.metrics net) in
  Alcotest.(check int) "max bytes zero" 0 r.Metrics.max_bytes;
  Alcotest.(check (float 0.)) "mean zero, not NaN" 0. r.Metrics.mean_bytes;
  Alcotest.(check (float 0.)) "p50 zero, not NaN" 0. r.Metrics.p50_bytes;
  Alcotest.(check int) "total still network-wide" 10 r.Metrics.total_bytes;
  Alcotest.(check int) "rounds survive" 2 r.Metrics.rounds

let test_report_json_keys_stable () =
  (* External tooling keys off these field names; lock them down. *)
  let net = Network.create ~n:2 ~corrupt:[] () in
  Network.run net ~rounds:1 (Array.init 2 (fun _ -> Some (fun ~round:_ ~inbox:_ -> ())));
  let json = Metrics.report_to_json (Metrics.report (Network.metrics net)) in
  List.iter
    (fun key ->
      let needle = "\"" ^ key ^ "\":" in
      let contains =
        let nl = String.length needle and hl = String.length json in
        let rec go i =
          i + nl <= hl && (String.sub json i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("key " ^ key) true contains)
    [
      "max_bytes"; "mean_bytes"; "p50_bytes"; "p95_bytes"; "p99_bytes";
      "stddev_bytes"; "total_bytes"; "max_msgs_sent"; "max_locality";
      "mean_locality"; "rounds";
    ]

let test_breakdown_json_sorted () =
  let json = Metrics.breakdown_to_json [ ("b", 2); ("a", 1) ] in
  Alcotest.(check string) "keys sorted by name" "{\"a\":1,\"b\":2}" json;
  Alcotest.(check string) "empty breakdown" "{}" (Metrics.breakdown_to_json [])

let test_msgs_recv_counted () =
  let net = Network.create ~n:2 ~corrupt:[] () in
  let handler p ~round ~inbox =
    ignore inbox;
    if round = 0 && p = 0 then begin
      Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty;
      Network.send net ~src:0 ~dst:1 ~tag:"t" Bytes.empty
    end
  in
  Network.run net ~rounds:2 (Array.init 2 (fun p -> Some (handler p)));
  let m = Network.metrics net in
  Alcotest.(check int) "receiver msg count" 2 (Metrics.party_msgs_recv m 1);
  Alcotest.(check int) "sender received none" 0 (Metrics.party_msgs_recv m 0)

(* --- Wire canonical byte form: QCheck round-trip properties --- *)

(* Messages as the simulator produces them: non-negative endpoints,
   arbitrary tag text, payloads from empty through oversized (well past
   any single protocol message this repo emits) — the size distribution
   is skewed so 0 and the large extreme both actually occur. *)
let gen_msg =
  QCheck.Gen.(
    let* src = int_bound 100_000 in
    let* dst = int_bound 100_000 in
    let* tag = string_size ~gen:printable (int_bound 40) in
    let* payload_len =
      oneof [ return 0; int_bound 64; int_bound 4096; return 1_000_000 ]
    in
    let+ seed = int_bound 255 in
    {
      Wire.src;
      dst;
      tag;
      payload = Bytes.init payload_len (fun i -> Char.chr ((i + seed) land 0xff));
    })

let print_msg (m : Wire.msg) =
  Printf.sprintf "%d->%d [%s] %dB" m.src m.dst m.tag (Bytes.length m.payload)

let arb_msg = QCheck.make ~print:print_msg gen_msg

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: decode (encode m) = m (payloads 0..1MB)"
    ~count:60 arb_msg (fun m ->
      match Wire.decode (Wire.encode m) with
      | None -> false
      | Some m' ->
        m'.Wire.src = m.Wire.src && m'.Wire.dst = m.Wire.dst
        && m'.Wire.tag = m.Wire.tag
        && Bytes.equal m'.Wire.payload m.Wire.payload)

(* Decoding is total on adversarial input: truncations and corruptions of a
   valid encoding (including length-prefix bytes, making the payload claim
   more bytes than exist) return None or a msg — never an exception. *)
let prop_wire_decode_total =
  QCheck.Test.make ~name:"wire: decode never raises on mangled input"
    ~count:200
    QCheck.(triple arb_msg (int_bound 1_000_000) (int_bound 255))
    (fun (m, pos, byte) ->
      let enc = Wire.encode m in
      let len = Bytes.length enc in
      (* truncate at pos *)
      let trunc = Bytes.sub enc 0 (min pos len) in
      ignore (Wire.decode trunc);
      (* flip a byte at pos *)
      let mangled = Bytes.copy enc in
      Bytes.set mangled (pos mod len) (Char.chr byte);
      ignore (Wire.decode mangled);
      (* appending trailing garbage must be rejected *)
      Wire.decode (Bytes.cat enc (Bytes.of_string "x")) = None)

let test_wire_encode_stable () =
  (* One pinned vector so the canonical byte form cannot drift silently:
     varint src, varint dst, len-prefixed tag, len-prefixed payload. *)
  let m = { Wire.src = 1; dst = 300; tag = "t"; payload = Bytes.of_string "ab" } in
  let enc = Wire.encode m in
  Alcotest.(check string) "canonical bytes" "\x01\xac\x02\x01t\x02ab"
    (Bytes.to_string enc);
  Alcotest.(check bool) "round-trips" true (Wire.decode enc = Some m)

(* --- The one round loop: call shapes x backends are interchangeable --- *)

(* A small random protocol that honours the sparse contract: a party acts
   only when it is one of the round's spontaneous actors or holds mail,
   and every send (honest or chaff) stays inside a universe [u], so a
   party outside [u] is a no-op in every round. *)
type loop_case = {
  lc_n : int;
  lc_seed : int;
  lc_rounds : int;
  lc_stop_at : int; (* stop predicate fires from this round on *)
  lc_u : int list; (* universe, in a random order *)
  lc_corrupt : int list;
  lc_spont : int list array; (* per round: spontaneous actors, unsorted, dups *)
  lc_extra_slots : int list; (* outside-u parties given a handler slot *)
}

let gen_loop_case =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* seed = int_bound 1_000_000 in
    let* rounds = int_range 1 6 in
    let* stop_at = int_range 1 (rounds + 2) in
    let* u = list_size (int_range 1 n) (int_bound (n - 1)) in
    let u = List.sort_uniq compare u in
    let* keys = list_repeat (List.length u) (int_bound 1000) in
    let u = List.map snd (List.sort compare (List.combine keys u)) in
    let* corrupt = list_size (int_bound 2) (oneofl u) in
    let* spont =
      array_repeat rounds (list_size (int_bound 4) (oneofl u))
    in
    let* slots = list_size (int_bound 3) (int_bound (n - 1)) in
    return
      {
        lc_n = n;
        lc_seed = seed;
        lc_rounds = rounds;
        lc_stop_at = stop_at;
        lc_u = u;
        lc_corrupt = List.sort_uniq compare corrupt;
        lc_spont = spont;
        lc_extra_slots = List.filter (fun p -> not (List.mem p u)) slots;
      })

let arb_loop_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d seed=%d rounds=%d stop_at=%d u=[%s] corrupt=[%s]"
        c.lc_n c.lc_seed c.lc_rounds c.lc_stop_at
        (String.concat ";" (List.map string_of_int c.lc_u))
        (String.concat ";" (List.map string_of_int c.lc_corrupt)))
    gen_loop_case

(* Run the case through one call shape on one backend; return the tap
   transcript and the metrics report. *)
let run_loop_case c ~backend ~shape =
  let log = ref [] in
  let tap ~round (m : Wire.msg) =
    log := (round, m.Wire.src, m.Wire.dst, m.Wire.tag, Bytes.to_string m.Wire.payload) :: !log
  in
  let net =
    Network.create ~backend ~observers:(Network.observers ~tap ()) ~n:c.lc_n
      ~corrupt:c.lc_corrupt ()
  in
  let u = Array.of_list c.lc_u in
  let spont ~round = if round < c.lc_rounds then c.lc_spont.(round) else [] in
  let handler p ~round ~inbox =
    if inbox <> [] || List.mem p (spont ~round) then begin
      let h =
        Hashtbl.hash
          ( c.lc_seed, p, round,
            List.map (fun (m : Wire.msg) -> (m.Wire.src, m.Wire.tag, m.Wire.payload)) inbox )
      in
      for j = 0 to h mod 3 do
        let dst = u.((h / (j + 1)) mod Array.length u) in
        Network.send net ~src:p ~dst
          ~tag:(if (h lsr j) land 1 = 0 then "a" else "b")
          (Bytes.of_string (string_of_int ((h lsr 3) + j)))
      done
    end
  in
  let chaff =
    {
      Network.adv_name = "chaff";
      adv_step =
        (fun net ~round ~honest_staged ->
          List.iter
            (fun q ->
              let k = round + q + List.length honest_staged in
              Network.send net ~src:q ~dst:u.(k mod Array.length u) ~tag:"chaff"
                (Bytes.make (k mod 5) 'x'))
            c.lc_corrupt);
    }
  in
  let stop ~round = round >= c.lc_stop_at in
  let rounds = c.lc_rounds + 1 in
  (match shape with
  | `Array ->
    Network.run net ~adversary:chaff ~stop ~rounds
      (Array.init c.lc_n (fun p ->
           if List.mem p c.lc_u || List.mem p c.lc_extra_slots then
             Some (handler p)
           else None))
  | `Parties ->
    Network.run_parties net ~adversary:chaff ~stop ~rounds
      (List.map (fun p -> (p, handler p)) c.lc_u)
  | `Driven ->
    Network.run_active net ~adversary:chaff ~stop ~rounds ~extra:spont
      (fun p -> Some (handler p)));
  (List.rev !log, Metrics.report (Network.metrics net))

let prop_loop_shapes_agree =
  QCheck.Test.make ~count:150
    ~name:"round loop: array, party-list and delivery-driven shapes agree on every backend"
    arb_loop_case
    (fun c ->
      let runs =
        List.concat_map
          (fun backend ->
            List.map
              (fun shape -> (backend, shape, run_loop_case c ~backend ~shape))
              [ `Array; `Parties; `Driven ])
          [ Repro_net.Sched.Dense; Repro_net.Sched.Sparse;
            Repro_net.Sched.Async Repro_net.Sched.default_async ]
      in
      let _, _, (ref_log, ref_report) = List.hd runs in
      List.iter
        (fun (backend, shape, (log, report)) ->
          let what =
            Printf.sprintf "%s/%s" (Repro_net.Sched.backend_name backend)
              (match shape with `Array -> "array" | `Parties -> "parties" | `Driven -> "driven")
          in
          if log <> ref_log then
            QCheck.Test.fail_reportf "%s: transcript differs (%d vs %d sends)" what
              (List.length log) (List.length ref_log);
          if report <> ref_report then
            QCheck.Test.fail_reportf "%s: metrics report differs" what)
        runs;
      true)

let suite =
  [
    Alcotest.test_case "delivery next round" `Quick test_delivery_next_round;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "report excludes corrupt" `Quick test_report_excludes_corrupt;
    Alcotest.test_case "rushing adversary" `Quick test_rushing_adversary_sees_staged;
    Alcotest.test_case "adversary cannot impersonate" `Quick
      test_adversary_cannot_impersonate;
    Alcotest.test_case "flush" `Quick test_flush_drops_in_flight;
    Alcotest.test_case "engine multiplexing" `Quick test_engine_multiplexing;
    Alcotest.test_case "engine isolation" `Quick test_engine_instance_isolation;
    Alcotest.test_case "engine rounds" `Quick test_engine_rounds_observed;
    Alcotest.test_case "tag grouping" `Quick test_tag_grouping;
    Alcotest.test_case "tag breakdown" `Quick test_tag_breakdown_accumulates;
    Alcotest.test_case "report empty selection" `Quick test_report_empty_selection;
    Alcotest.test_case "report json keys" `Quick test_report_json_keys_stable;
    Alcotest.test_case "breakdown json" `Quick test_breakdown_json_sorted;
    Alcotest.test_case "msgs recv" `Quick test_msgs_recv_counted;
    Alcotest.test_case "wire encode stable" `Quick test_wire_encode_stable;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_decode_total;
    QCheck_alcotest.to_alcotest prop_loop_shapes_agree;
  ]
