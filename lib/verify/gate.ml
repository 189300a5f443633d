(* The rule-soundness gate: an observer for Rules.saturate that re-checks
   the invariants of every memo class a rule changes, attributing new
   diagnostics to the offending rule.

   The memo's core invariant is that all elements of a class denote the
   same relation — in particular they must agree on output schema and on
   result location, and each element must be locally well-formed.  An
   unsound rule shows up as a violation of one of these immediately after
   it fires. *)

open Tango_rel
open Tango_algebra
module Memo = Tango_volcano.Memo

type t = {
  seen : (string, unit) Hashtbl.t;  (* dedup key: rule + message *)
  poisoned : (int, unit) Hashtbl.t;  (* classes already known inconsistent *)
  mutable diags : Diag.t list;
  mutable fired : int;  (* rule applications examined *)
}

let create () =
  { seen = Hashtbl.create 64; poisoned = Hashtbl.create 8; diags = []; fired = 0 }

let report g ~rule ~path msg =
  let key = rule ^ "|" ^ msg in
  if not (Hashtbl.mem g.seen key) then begin
    Hashtbl.add g.seen key ();
    g.diags <- Diag.v ~rule Diag.Error "schema" ~path msg :: g.diags
  end

(* One representative Op.t per element: the element's own operator over
   extracted child subtrees. *)
let op_of_element m (n : Memo.node) : Op.t = Memo.op_of_node (Memo.extract m) n

(* Stored poisoned ids can go stale when a union picks a new root, so
   compare through [find]. *)
let poisoned_class g m id =
  let r = Memo.find m id in
  Hashtbl.mem g.poisoned r
  || Hashtbl.fold (fun p () acc -> acc || Memo.find m p = r) g.poisoned false

let observer g ~rule (m : Memo.t) (c : int) : unit =
  g.fired <- g.fired + 1;
  let c = Memo.find m c in
  (* Once a class is known inconsistent, every later rule touching it —
     or any class built on top of it — would re-trip the same violation;
     only the first attribution names the culprit.  Skip poisoned classes,
     and silently poison classes that merely inherit corruption from a
     poisoned child. *)
  let els = Memo.elements m c in
  let inherits =
    List.exists
      (fun el -> List.exists (poisoned_class g m) (Memo.children el))
      els
  in
  if poisoned_class g m c then ()
  else if inherits then Hashtbl.replace g.poisoned c ()
  else begin
  (* Poison on *detected* violations, not reported ones: a rule that
     corrupts two classes the same way produces textually identical
     messages, and the dedup must not leave the second class unpoisoned. *)
  let violated = ref false in
  let report g ~rule ~path msg =
    violated := true;
    report g ~rule ~path msg
  in
  let path = Printf.sprintf "class %d" c in
  let infos =
    List.filter_map
      (fun el ->
        match op_of_element m el with
        | exception Memo.Cyclic -> None
        | op -> (
            match (Op.schema op, Op.location op) with
            | s, l -> Some (op, s, l)
            | exception Op.Ill_formed msg ->
                report g ~rule ~path
                  (Printf.sprintf "rule produced ill-formed element %s: %s"
                     (Op.op_name op) msg);
                None))
      els
  in
  (match infos with
  | [] | [ _ ] -> ()
  | (op0, s0, l0) :: rest ->
      List.iter
        (fun (op, s, l) ->
          if not (Schema.equal s s0) then
            report g ~rule ~path
              (Printf.sprintf
                 "class elements disagree on schema: %s yields %s but %s \
                  yields %s"
                 (Op.op_name op0) (Schema.to_string s0) (Op.op_name op)
                 (Schema.to_string s));
          if l <> l0 then
            report g ~rule ~path
              (Printf.sprintf
                 "class elements disagree on location: %s is %s-resident but \
                  %s is %s-resident"
                 (Op.op_name op0)
                 (match l0 with Op.Db -> "DBMS" | Op.Mw -> "middleware")
                 (Op.op_name op)
                 (match l with Op.Db -> "DBMS" | Op.Mw -> "middleware")))
        rest);
  if !violated then Hashtbl.replace g.poisoned c ()
  end

let diagnostics g = List.rev g.diags
let checked g = g.fired
