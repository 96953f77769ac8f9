// Fixture: float-equality.
bool fire(double x) { return x == 0.5; }
bool waived(double x) { return x != 1.0; }  // analyze-ok: float-equality
// analyze-ok: float-equality
