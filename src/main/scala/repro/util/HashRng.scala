package repro.util

/** Deterministic splittable hash RNG.
  *
  * Every random draw in this codebase (graph edges, topic assignment, MRR
  * roots, edge liveness coins, forward-simulation coins) is a pure function
  * of `(seed, ids...)` through this object. That buys three things:
  *
  *   1. reproducibility — reruns and re-partitioned Spark jobs see the same
  *      randomness;
  *   2. consistency — an edge coin flipped twice in one live-edge world
  *      (e.g. when a reverse BFS reaches a vertex along two paths) lands the
  *      same way, which is exactly the live-edge semantics RR sets need;
  *   3. exact references — a test-side reverse closure that calls the same
  *      coin function reproduces the MRR sampler's sets row for row.
  *
  * The mixer is splitmix64 (Steele et al.), folded over the argument list.
  */
object HashRng {

  /** splitmix64 finalizer: a strong 64-bit mixing function. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Hash of two longs. Specialized overloads avoid varargs boxing in hot loops. */
  def mix(a: Long, b: Long): Long = mix64(mix64(a) ^ b)

  def mix(a: Long, b: Long, c: Long): Long = mix64(mix(a, b) ^ c)

  def mix(a: Long, b: Long, c: Long, d: Long): Long = mix64(mix(a, b, c) ^ d)

  def mix(a: Long, b: Long, c: Long, d: Long, e: Long): Long =
    mix64(mix(a, b, c, d) ^ e)

  def mix(a: Long, b: Long, c: Long, d: Long, e: Long, f: Long): Long =
    mix64(mix(a, b, c, d, e) ^ f)

  /** Map a hash to a double uniform in [0, 1) using the top 53 bits. */
  def toUniform(h: Long): Double = (h >>> 11) * (1.0 / (1L << 53))

  def uniform(a: Long, b: Long): Double = toUniform(mix(a, b))

  def uniform(a: Long, b: Long, c: Long): Double = toUniform(mix(a, b, c))

  def uniform(a: Long, b: Long, c: Long, d: Long): Double = toUniform(mix(a, b, c, d))

  def uniform(a: Long, b: Long, c: Long, d: Long, e: Long): Double =
    toUniform(mix(a, b, c, d, e))

  def uniform(a: Long, b: Long, c: Long, d: Long, e: Long, f: Long): Double =
    toUniform(mix(a, b, c, d, e, f))

  /** Uniform long in [0, n). */
  def uniformLong(n: Long, a: Long, b: Long): Long = {
    require(n > 0, s"uniformLong bound must be positive, got $n")
    (uniform(a, b) * n).toLong.min(n - 1)
  }
}
