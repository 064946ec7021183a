package repro.tipbench

/** Minimal JSON writer for the benchmark's raw report (no JSON library is
  * on the program's classpath).
  */
object Json {
  def obj(fields: (String, Any)*): String = apply(fields.toMap)

  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => str(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: Map[_, _]         => m.map { case (k, x) => s"${str(k.toString)}:${apply(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_]      => xs.map(apply).mkString("[", ",", "]")
    case xs: Array[_]         => xs.map(apply).mkString("[", ",", "]")
    case other                => str(other.toString)
  }

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
