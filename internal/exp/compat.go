package exp

// TimePointsCSV is TimeSheet(pts).CSV().
// Kept for bench/; ROADMAP item 1(v) deletes it.
func TimePointsCSV(pts []TimePoint) string { return TimeSheet(pts).CSV() }

// OpenPointsCSV is OpenSheet(pts).CSV().
// Kept for bench/; ROADMAP item 1(v) deletes it.
func OpenPointsCSV(pts []OpenPoint) string { return OpenSheet(pts).CSV() }

// FederationPointsCSV is FederationSheet(pts).CSV().
// Kept for bench/; ROADMAP item 1(v) deletes it.
func FederationPointsCSV(pts []ScalePoint) string { return FederationSheet(pts).CSV() }
