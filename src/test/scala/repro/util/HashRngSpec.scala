package repro.util

import org.scalatest.funsuite.AnyFunSuite

class HashRngSpec extends AnyFunSuite {

  private val probe: Seq[Long] =
    Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue, 123456789L, -987654321L)

  test("mix64 is deterministic") {
    assert(HashRng.mix64(123L) == HashRng.mix64(123L))
  }

  test("mix64 differs on different inputs") {
    assert(HashRng.mix64(1L) != HashRng.mix64(2L))
  }

  test("mix overloads are order-sensitive") {
    assert(HashRng.mix(1L, 2L) != HashRng.mix(2L, 1L))
    assert(HashRng.mix(1L, 2L, 3L) != HashRng.mix(3L, 2L, 1L))
  }

  test("mix arities are independent streams") {
    assert(HashRng.mix(1L, 2L) != HashRng.mix(1L, 2L, 0L))
  }

  test("uniform lies in [0, 1) for extreme inputs") {
    for (a <- probe; b <- probe) {
      val u = HashRng.uniform(a, b)
      assert(u >= 0.0 && u < 1.0, s"uniform($a,$b)=$u")
    }
  }

  test("uniform five-arg lies in [0, 1)") {
    for (a <- probe; b <- probe) {
      val u = HashRng.uniform(a, b, a, b, a)
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("uniform is deterministic across calls") {
    assert(HashRng.uniform(7L, 8L, 9L) == HashRng.uniform(7L, 8L, 9L))
  }

  test("uniform buckets are roughly balanced") {
    val n = 100000
    val buckets = new Array[Int](10)
    (0 until n).foreach { i =>
      buckets((HashRng.uniform(5L, i.toLong) * 10).toInt) += 1
    }
    buckets.foreach { b =>
      assert(math.abs(b - n / 10) < n / 50, s"bucket off: ${buckets.toSeq}")
    }
  }

  test("no obvious serial correlation between consecutive draws") {
    val n = 50000
    var sumProd = 0.0
    (0 until n).foreach { i =>
      sumProd += (HashRng.uniform(9L, i.toLong) - 0.5) * (HashRng.uniform(9L, (i + 1).toLong) - 0.5)
    }
    assert(math.abs(sumProd / n) < 0.01)
  }

  test("uniformLong stays in range for extreme inputs at bound 7") {
    for (a <- probe; b <- probe) {
      val v = HashRng.uniformLong(7, a, b)
      assert(v >= 0 && v < 7)
    }
  }

  test("uniformLong covers all values at bound 5") {
    val seen = (0 until 1000).map(i => HashRng.uniformLong(5, 1L, i.toLong)).toSet
    assert(seen == Set(0L, 1L, 2L, 3L, 4L))
  }

  test("uniformLong stays in range and covers values") {
    val vs = (0 until 1000).map(i => HashRng.uniformLong(4L, 2L, i.toLong))
    assert(vs.forall(v => v >= 0 && v < 4))
    assert(vs.toSet == Set(0L, 1L, 2L, 3L))
  }

  test("uniformLong rejects an Int bound of 0") {
    intercept[IllegalArgumentException](HashRng.uniformLong(0, 1L, 2L))
  }

  test("uniformLong rejects non-positive bound") {
    intercept[IllegalArgumentException](HashRng.uniformLong(0L, 1L, 2L))
  }
}
