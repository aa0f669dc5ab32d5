(* Protocol engine: drives many round-based state machines over the network.

   In the BA protocol a single party simultaneously participates in several
   protocol instances — one committee BA, coin-toss or aggregation instance
   per tree node it is assigned to. Protocol modules (phase king, coin toss,
   ...) are written as pure per-party state machines; this engine multiplexes
   all instances of all parties over one Network, tagging messages with
   "tag/instance" so concurrent instances never interfere.

   Timing: sends of local round r are delivered and handed to [m_recv] with
   the same local round number at the start of the next network round. An
   execution of [rounds] local rounds therefore takes [rounds + 1] network
   rounds (the final one only delivers). *)

type machine = {
  m_send : round:int -> (int * bytes) list;
      (* messages (dst, payload) this machine emits in local round [round] *)
  m_recv : round:int -> (int * bytes) list -> unit;
      (* messages (src, payload) delivered for local round [round] *)
}

let instance_tag tag inst = tag ^ "/" ^ inst

(* Messages handed to an instance's [m_recv] across all engine executions. *)
let c_msgs = Repro_obs.Counters.make "engine.msgs"

(* Depth of each dirty inbox as the engine dispatches it: how many wire
   messages one party had to demultiplex in one round. Delivery-schedule
   driven, hence deterministic. *)
let h_inbox = Repro_obs.Counters.histogram "engine.inbox_depth"

(* Allocation-free prefix test: engine dispatch runs once per delivered
   message, so the "tag/" match must not build substrings just to compare. *)
let has_prefix ~tag full =
  let tl = String.length tag and fl = String.length full in
  fl > tl
  && full.[tl] = '/'
  &&
  let rec eq i = i >= tl || (full.[i] = tag.[i] && eq (i + 1)) in
  eq 0

let split_tag ~tag full =
  if has_prefix ~tag full then
    let pl = String.length tag + 1 in
    Some (String.sub full pl (String.length full - pl))
  else None

(* [machines p] lists party p's instances as (instance-id, machine); entries
   for corrupt parties are ignored (their traffic comes from the adversary).
   The engine runs [rounds] local rounds starting from the network's current
   round. *)
let run net ?adversary ~tag ~rounds ~(machines : int -> (string * machine) list)
    () =
  let n = Network.n net in
  (* Sparse: only parties that own at least one instance get a table and a
     handler. A party with no instances is a strict no-op in every round
     (nothing to dispatch to, nothing to send), so skipping it entirely
     leaves the transcript unchanged while each round costs O(participants),
     not O(n) — with sortition that is polylog(n) parties. *)
  let participants =
    List.filter_map
      (fun p ->
        if not (Network.is_honest net p) then None
        else
          match machines p with
          | [] -> None
          | ms ->
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun (inst, m) ->
                if Hashtbl.mem tbl inst then
                  invalid_arg ("Engine.run: duplicate instance " ^ inst);
                Hashtbl.add tbl inst m)
              ms;
            Some (p, tbl))
      (List.init n (fun p -> p))
  in
  let start = Network.round net in
  (* Per-message constants matter: one committee phase can deliver millions
     of messages. Full instance tags are interned once per run (no string
     concat per send) and tag-splitting is memoized by tag content (no
     substring allocation per delivered message). *)
  let interned : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let full_tag inst =
    match Hashtbl.find_opt interned inst with
    | Some f -> f
    | None ->
      let f = instance_tag tag inst in
      Hashtbl.add interned inst f;
      f
  in
  let split_memo : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  let split full =
    match Hashtbl.find_opt split_memo full with
    | Some r -> r
    | None ->
      let r = split_tag ~tag full in
      Hashtbl.add split_memo full r;
      r
  in
  let handler p tbl ~round ~inbox =
    let local = round - start in
    (* Dispatch last round's deliveries per instance, preserving order. *)
    if local > 0 then
      Repro_obs.Trace.span ~cat:"engine" "engine.dispatch" (fun () ->
          Repro_obs.Counters.observe h_inbox (List.length inbox);
          let by_inst = Hashtbl.create 8 in
          List.iter
            (fun (m : Wire.msg) ->
              match split m.tag with
              | None -> () (* other phase's leftovers: ignore *)
              | Some inst ->
                if Hashtbl.mem tbl inst then begin
                  Repro_obs.Counters.bump c_msgs;
                  Hashtbl.replace by_inst inst
                    ((m.src, m.payload)
                    :: (try Hashtbl.find by_inst inst with Not_found -> []))
                end)
            inbox;
          Hashtbl.iter
            (fun inst msgs ->
              let m = Hashtbl.find tbl inst in
              m.m_recv ~round:(local - 1) (List.rev msgs))
            by_inst;
          (* Instances that received nothing still observe the round. *)
          Hashtbl.iter
            (fun inst m ->
              if not (Hashtbl.mem by_inst inst) then
                m.m_recv ~round:(local - 1) [])
            tbl);
    if local < rounds then
      Hashtbl.iter
        (fun inst m ->
          match m.m_send ~round:local with
          | [] -> ()
          | msgs ->
            let ft = full_tag inst in
            List.iter
              (fun (dst, payload) ->
                Network.send net ~src:p ~dst ~tag:ft payload)
              msgs)
        tbl
  in
  let parties = List.map (fun (p, tbl) -> (p, handler p tbl)) participants in
  (* The engine tag ("coin-ba", "aggr-ba-2", ...) is the finest-grained
     phase label the auditor's timeline and the flight recorder carry. *)
  Network.phase net ("engine:" ^ tag) @@ fun () ->
  Repro_obs.Trace.span ~cat:"engine" ("engine:" ^ tag) (fun () ->
      Network.run_parties net ?adversary ~rounds:(rounds + 1) parties)
