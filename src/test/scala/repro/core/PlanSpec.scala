package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PlanOps.PlanRelations

class PlanSpec extends AnyFunSuite {

  test("empty plan has zero size") {
    val p = Plan.empty(3)
    assert(p.ell == 3)
    assert(p.size == 0)
    assert(p.assignments.isEmpty)
  }

  test("size is the sum of per-piece seed-set sizes") {
    val p = Plan(Vector(Set(1L, 2L), Set.empty, Set(2L)))
    assert(p.size == 3)
  }

  test("the same promoter on two pieces consumes two budget units") {
    val p = Plan.empty(2).add(0, 5L).add(1, 5L)
    assert(p.size == 2)
  }

  test("adding an existing promoter to the same piece is idempotent") {
    val p = Plan.empty(2).add(0, 5L).add(0, 5L)
    assert(p.size == 1)
  }

  test("containment per Definition 2") {
    val small = Plan(Vector(Set(1L), Set.empty[Long]))
    val big = Plan(Vector(Set(1L, 2L), Set(3L)))
    assert(small.containedIn(big))
    assert(!big.containedIn(small))
    assert(small.containedIn(small))
  }

  test("containment is per-piece, not aggregate") {
    val a = Plan(Vector(Set(1L), Set.empty[Long]))
    val b = Plan(Vector(Set.empty[Long], Set(1L, 2L)))
    assert(!a.containedIn(b))
  }

  test("union per Definition 3") {
    val a = Plan(Vector(Set(1L), Set(2L)))
    val b = Plan(Vector(Set(3L), Set(2L)))
    val u = a.union(b)
    assert(u == Plan(Vector(Set(1L, 3L), Set(2L))))
    assert(a.containedIn(u) && b.containedIn(u))
  }

  test("iUnion per Definition 4 touches one piece only") {
    val a = Plan(Vector(Set(1L), Set(2L)))
    val u = a.iUnion(1, Set(7L, 8L))
    assert(u.seedSets(0) == Set(1L))
    assert(u.seedSets(1) == Set(2L, 7L, 8L))
  }

  test("singlePiece builds a baseline-shaped plan") {
    val p = PlanOps.singlePiece(3, 1, Set(4L, 5L))
    assert(p.seedSets(0).isEmpty && p.seedSets(2).isEmpty)
    assert(p.seedSets(1) == Set(4L, 5L))
    assert(p.size == 2)
  }

  test("fromAssignments round-trips through assignments") {
    val p = Plan.fromAssignments(2, Seq((1L, 0), (2L, 1), (3L, 0)))
    assert(p.assignments.toSet == Set((1L, 0), (2L, 1), (3L, 1 - 1)) + ((3L, 0)))
    assert(Plan.fromAssignments(2, p.assignments) == p)
  }

  test("arity mismatches are rejected") {
    intercept[IllegalArgumentException](Plan.empty(2).union(Plan.empty(3)))
    intercept[IllegalArgumentException](Plan.empty(2).iUnion(2, Set(1L)))
    intercept[IllegalArgumentException](Plan.empty(0))
  }
}
