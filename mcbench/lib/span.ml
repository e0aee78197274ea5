(* Spans recorded by the benchmark around its calls into mcsim's layers.

   A span has a name (the layer, e.g. "machine.run"), a start and an end
   (seconds), the span that was open when it started, and the id of the
   unit or submit it serves. Spans stay in memory; the caller reduces
   them to per-layer self times at the end of the run. Recording is
   single-domain: the traced replays run serially. *)

type span = {
  id : int;
  name : string;
  unit_id : int;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable enabled : bool;
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable unit_id : int;
  mutable spans : span list;  (** most recent first *)
}

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { clock; enabled; next_id = 0; open_ = []; unit_id = 0; spans = [] }

let set_enabled t on = t.enabled <- on

(* Spans started from now on belong to unit [u]. *)
let set_unit t u = t.unit_id <- u

let spans t = List.rev t.spans

let clear t =
  t.spans <- [];
  t.open_ <- []

(* [record t name f] runs [f], recording a span around it when tracing
   is on; a disabled recorder adds one branch. *)
let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start = t.clock () in
    let finish () =
      let stop = t.clock () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; unit_id = t.unit_id; parent; start; stop } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let duration s = s.stop -. s.start

(* A span's self time: its duration minus the part its direct children
   cover. Children of one span never overlap (recording is serial). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Total duration of the spans called [name]. *)
let total spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 spans

(* Spans around the benchmark's own code, rather than around a call
   into a layer, are named "mcbench.*". *)
let own s = String.starts_with ~prefix:"mcbench." s.name

(* The closure check: the share of the root spans' wall that no layer
   span accounts for — the self time of the benchmark's own spans over
   the roots' duration. 0 means the layers add up to the end-to-end
   wall. *)
let unaccounted_frac spans =
  let wall =
    List.fold_left (fun acc s -> if s.parent < 0 then acc +. duration s else acc) 0.0 spans
  in
  if wall <= 0.0 then 0.0
  else
    let self =
      List.fold_left
        (fun acc (s, self) -> if own s then acc +. self else acc)
        0.0 (self_times spans)
    in
    self /. wall
