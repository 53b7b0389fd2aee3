package repro.ml

/** An interval constraint on a single feature, derived from query
  * predicates (WHERE clauses, pipeline filters) or data statistics.
  *
  * Bounds are closed unless the matching `*Strict` flag is set.
  */
final case class FeatureConstraint(
    lo: Double = Double.NegativeInfinity,
    loStrict: Boolean = false,
    hi: Double = Double.PositiveInfinity,
    hiStrict: Boolean = false,
) extends Serializable {

  /** Does the constraint guarantee `x < t` (always take a tree's left branch)? */
  def alwaysBelow(t: Double): Boolean = hi < t || (hi == t && hiStrict)

  /** Does the constraint guarantee `x >= t` (always take a tree's right branch)? */
  def alwaysAtLeast(t: Double): Boolean = lo >= t

  /** The single value this constraint pins, if any. */
  def equalTo: Option[Double] =
    if (lo == hi && !loStrict && !hiStrict) Some(lo) else None

  def intersect(other: FeatureConstraint): FeatureConstraint = {
    val (nlo, nloS) =
      if (lo > other.lo) (lo, loStrict)
      else if (other.lo > lo) (other.lo, other.loStrict)
      else (lo, loStrict || other.loStrict)
    val (nhi, nhiS) =
      if (hi < other.hi) (hi, hiStrict)
      else if (other.hi < hi) (other.hi, other.hiStrict)
      else (hi, hiStrict || other.hiStrict)
    FeatureConstraint(nlo, nloS, nhi, nhiS)
  }

  def contains(v: Double): Boolean =
    (if (loStrict) v > lo else v >= lo) && (if (hiStrict) v < hi else v <= hi)
}

object FeatureConstraint {
  def equalTo(v: Double): FeatureConstraint = FeatureConstraint(lo = v, hi = v)
  def atLeast(v: Double): FeatureConstraint = FeatureConstraint(lo = v)
  def greaterThan(v: Double): FeatureConstraint = FeatureConstraint(lo = v, loStrict = true)
  def atMost(v: Double): FeatureConstraint = FeatureConstraint(hi = v)
  def lessThan(v: Double): FeatureConstraint = FeatureConstraint(hi = v, hiStrict = true)
}

/** A predicate over a raw (pre-featurization) column, as extracted from a
  * WHERE clause or an imperative filter.
  */
sealed trait ColPredicate extends Serializable { def col: String }
final case class NumRange(col: String, constraint: FeatureConstraint) extends ColPredicate
final case class CatEquals(col: String, value: String) extends ColPredicate
