(* Boundary instrumentation. The benchmark measures every layer from the
   outside, at the closure records the layers hand each other:
   [Fuselike.Vfs.ops] (workload -> DUFS, DUFS -> back-end) and
   [Zk.Zk_client.handle] (DUFS or session -> cache or coordination
   service). Nothing here touches the virtual clock: wrappers only read
   it, so a traced run replays the untraced run event for event.

   Two recorders:
   - [rec_] (always on) keeps the exact per-class latency samples of the
     top-level ops and their success counts — the end-to-end numbers.
   - the span store (traced runs only) keeps one record per boundary
     crossing: layer, op class, the op id shared by every span of one
     top-level op, parent span, virtual and host start/end. Spans stay in
     memory and are written out when the run ends. *)

module Fbuf = Perfstats.Fbuf
module Vfs = Fuselike.Vfs
module Zc = Zk.Zk_client

(* Op classes. Writes mutate the namespace; reads do not. *)
type cls = Mkdir | Rmdir | Create | Unlink | Set | Stat | Readdir | Other

let classes = [ Mkdir; Rmdir; Create; Unlink; Set; Stat; Readdir; Other ]
let cls_index = function
  | Mkdir -> 0 | Rmdir -> 1 | Create -> 2 | Unlink -> 3 | Set -> 4
  | Stat -> 5 | Readdir -> 6 | Other -> 7

let cls_name = function
  | Mkdir -> "mkdir" | Rmdir -> "rmdir" | Create -> "create"
  | Unlink -> "unlink" | Set -> "set" | Stat -> "stat" | Readdir -> "readdir"
  | Other -> "other"

let is_write = function
  | Mkdir | Rmdir | Create | Unlink | Set -> true
  | Stat | Readdir | Other -> false

let is_read = function Stat | Readdir -> true | _ -> false
let n_classes = List.length classes

(* Layers a span can belong to. *)
type layer = Top | Zk_call | Pfs_call

let layer_index = function Top -> 0 | Zk_call -> 1 | Pfs_call -> 2

(* {2 Top-level op samples (always on)} *)

type recorder = {
  lat : Fbuf.t array;               (* virtual seconds, per class *)
  mutable attempted : int;
  mutable failed : int;
  ok_write_ends : Fbuf.t;           (* virtual end of every successful write *)
}

let recorder () =
  { lat = Array.init n_classes (fun _ -> Fbuf.create ());
    attempted = 0;
    failed = 0;
    ok_write_ends = Fbuf.create () }

let samples r pred =
  let all = Fbuf.create () in
  List.iter
    (fun c ->
      if pred c then
        Array.iter (Fbuf.add all) (Fbuf.to_array r.lat.(cls_index c)))
    classes;
  Fbuf.sorted all

(* {2 Span store (traced runs only)} *)

type store = {
  mutable n : int;
  mutable layer : int array;
  mutable cls : int array;
  mutable op : int array;
  mutable parent : int array;
  mutable ok : bool array;
  mutable vs : float array;
  mutable ve : float array;
  mutable hs : float array;
  mutable he : float array;
  mutable next_op : int;
  mutable pending_peak : int;
  engine : Simkit.Engine.t;
}

let store engine =
  let c = 1024 in
  { n = 0;
    layer = Array.make c 0; cls = Array.make c 0; op = Array.make c 0;
    parent = Array.make c 0; ok = Array.make c true;
    vs = Array.make c 0.; ve = Array.make c 0.; hs = Array.make c 0.;
    he = Array.make c 0.; next_op = 0; pending_peak = 0; engine }

let grow s =
  let c = 2 * Array.length s.layer in
  let gi a = let b = Array.make c 0 in Array.blit a 0 b 0 s.n; b in
  let gf a = let b = Array.make c 0. in Array.blit a 0 b 0 s.n; b in
  s.layer <- gi s.layer; s.cls <- gi s.cls; s.op <- gi s.op;
  s.parent <- gi s.parent;
  (let b = Array.make c true in Array.blit s.ok 0 b 0 s.n; s.ok <- b);
  s.vs <- gf s.vs; s.ve <- gf s.ve; s.hs <- gf s.hs; s.he <- gf s.he

let open_span s ~layer ~cls ~op ~parent =
  if s.n = Array.length s.layer then grow s;
  let i = s.n in
  s.n <- i + 1;
  s.layer.(i) <- layer_index layer;
  s.cls.(i) <- cls_index cls;
  s.op.(i) <- op;
  s.parent.(i) <- parent;
  s.vs.(i) <- Simkit.Engine.now s.engine;
  s.hs.(i) <- Unix.gettimeofday ();
  let pending = Simkit.Engine.pending_events s.engine in
  if pending > s.pending_peak then s.pending_peak <- pending;
  i

let close_span s i ~ok =
  s.ve.(i) <- Simkit.Engine.now s.engine;
  s.he.(i) <- Unix.gettimeofday ();
  s.ok.(i) <- ok

(* Per simulated client: the top-level op and span in progress, so child
   spans find their parent. Every client is one simulated process whose
   calls are synchronous, so one slot per client suffices. *)
type ctx = {
  rec_ : recorder;
  store : store option;
  mutable cur_op : int;
  mutable cur_span : int;
}

let ctx ?store rec_ = { rec_; store; cur_op = -1; cur_span = -1 }

let ok_of = function Ok _ -> true | Error _ -> false

(* A top-level op: one success count, one latency sample unless [sample]
   is false, and in traced runs the root span of every child span it
   causes. *)
let op ?(sample = true) ctx cls f =
  let now = Simkit.Process.now in
  let v0 = now () in
  let span =
    match ctx.store with
    | None -> -1
    | Some s ->
      let op = s.next_op in
      s.next_op <- op + 1;
      ctx.cur_op <- op;
      open_span s ~layer:Top ~cls ~op ~parent:(-1)
  in
  ctx.cur_span <- span;
  let r = f () in
  let v1 = now () in
  let ok = ok_of r in
  let rc = ctx.rec_ in
  if sample then Fbuf.add rc.lat.(cls_index cls) (v1 -. v0);
  rc.attempted <- rc.attempted + 1;
  if not ok then rc.failed <- rc.failed + 1
  else if is_write cls then Fbuf.add rc.ok_write_ends v1;
  (match ctx.store with Some s -> close_span s span ~ok | None -> ());
  ctx.cur_op <- -1;
  ctx.cur_span <- -1;
  r

(* A call below the top-level op, recorded only in traced runs and only
   while a top-level op is in progress. *)
let child ctx layer cls f =
  match ctx.store with
  | Some s when ctx.cur_op >= 0 ->
    let i = open_span s ~layer ~cls ~op:ctx.cur_op ~parent:ctx.cur_span in
    let r = f () in
    close_span s i ~ok:(ok_of r);
    r
  | Some _ | None -> f ()

(* {2 Boundary wrappers} *)

(* [vfs_top ctx ~think ~counted ops] — the workload's view of a DUFS
   mount: each op sleeps the client's think time, then runs as one
   top-level op. mkdirs of paths [counted] rejects (the workload's
   skeleton, built before any measured phase) pass straight through. *)
let vfs_top ctx ~think ~counted (o : Vfs.ops) : Vfs.ops =
  let go cls f = think (); op ctx cls f in
  { o with
    Vfs.getattr = (fun p -> go Stat (fun () -> o.Vfs.getattr p));
    mkdir =
      (fun p ~mode ->
        if counted p then go Mkdir (fun () -> o.Vfs.mkdir p ~mode)
        else o.Vfs.mkdir p ~mode);
    rmdir = (fun p -> go Rmdir (fun () -> o.Vfs.rmdir p));
    create = (fun p ~mode -> go Create (fun () -> o.Vfs.create p ~mode));
    unlink = (fun p -> go Unlink (fun () -> o.Vfs.unlink p));
    readdir = (fun p -> go Readdir (fun () -> o.Vfs.readdir p)) }

(* DUFS -> back-end filesystem. *)
let vfs_child ctx (o : Vfs.ops) : Vfs.ops =
  let c cls f = child ctx Pfs_call cls f in
  { o with
    Vfs.getattr = (fun p -> c Stat (fun () -> o.Vfs.getattr p));
    access = (fun p -> c Stat (fun () -> o.Vfs.access p));
    mkdir = (fun p ~mode -> c Mkdir (fun () -> o.Vfs.mkdir p ~mode));
    rmdir = (fun p -> c Rmdir (fun () -> o.Vfs.rmdir p));
    create = (fun p ~mode -> c Create (fun () -> o.Vfs.create p ~mode));
    unlink = (fun p -> c Unlink (fun () -> o.Vfs.unlink p));
    rename = (fun a b -> c Other (fun () -> o.Vfs.rename a b));
    readdir = (fun p -> c Readdir (fun () -> o.Vfs.readdir p));
    chmod = (fun p ~mode -> c Set (fun () -> o.Vfs.chmod p ~mode));
    truncate = (fun p ~size -> c Set (fun () -> o.Vfs.truncate p ~size));
    read = (fun p ~off ~len -> c Stat (fun () -> o.Vfs.read p ~off ~len));
    write = (fun p ~off d -> c Set (fun () -> o.Vfs.write p ~off d)) }

(* Calls into a coordination handle (the cache, or the service itself).
   Fire-and-forget calls (watch arming and release, close) are not
   round trips and pass through. *)
let zk_child ctx (h : Zc.handle) : Zc.handle =
  let c cls f = child ctx Zk_call cls f in
  { h with
    Zc.create =
      (fun ?ephemeral ?sequential p ~data ->
        c Create (fun () -> h.Zc.create ?ephemeral ?sequential p ~data));
    get = (fun p -> c Stat (fun () -> h.Zc.get p));
    set = (fun ?version p ~data -> c Set (fun () -> h.Zc.set ?version p ~data));
    delete = (fun ?version p -> c Unlink (fun () -> h.Zc.delete ?version p));
    exists = (fun p -> c Stat (fun () -> h.Zc.exists p));
    children = (fun p -> c Readdir (fun () -> h.Zc.children p));
    children_with_data = (fun p -> c Readdir (fun () -> h.Zc.children_with_data p));
    children_with_data_watch =
      (fun p w -> c Readdir (fun () -> h.Zc.children_with_data_watch p w));
    multi = (fun t -> c Other (fun () -> h.Zc.multi t));
    get_watch = (fun p w -> c Stat (fun () -> h.Zc.get_watch p w));
    children_watch = (fun p w -> c Readdir (fun () -> h.Zc.children_watch p w));
    lease_get = (fun p -> c Stat (fun () -> h.Zc.lease_get p));
    lease_children = (fun p -> c Readdir (fun () -> h.Zc.lease_children p));
    lease_children_with_data =
      (fun p -> c Readdir (fun () -> h.Zc.lease_children_with_data p));
    multi_async =
      (fun t k ->
        match ctx.store with
        | Some s when ctx.cur_op >= 0 ->
          let i =
            open_span s ~layer:Zk_call ~cls:Other ~op:ctx.cur_op
              ~parent:ctx.cur_span
          in
          h.Zc.multi_async t (fun r ->
              close_span s i ~ok:(ok_of r);
              k r)
        | Some _ | None -> h.Zc.multi_async t k) }

(* {2 Writing the spans out} *)

let layer_name = function 0 -> "top" | 1 -> "zk.client" | _ -> "pfs"

let cls_of_index i = List.nth classes i

let dump s path =
  let oc = open_out path in
  output_string oc
    "span\tlayer\tclass\top\tparent\tok\tvirt_start\tvirt_end\thost_start\thost_end\n";
  for i = 0 to s.n - 1 do
    Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%b\t%.9f\t%.9f\t%.6f\t%.6f\n" i
      (layer_name s.layer.(i))
      (cls_name (cls_of_index s.cls.(i)))
      s.op.(i) s.parent.(i) s.ok.(i) s.vs.(i) s.ve.(i) s.hs.(i) s.he.(i)
  done;
  close_out oc
