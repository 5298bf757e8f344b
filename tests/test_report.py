from necklaces.report import CheckEntry, CheckReport


def test_check_entries_compare_by_value():
    assert CheckEntry("a", True) == CheckEntry("a", True, "")
    assert CheckEntry("a", True) != CheckEntry("a", False)
    assert CheckEntry("a", False, "why") != CheckEntry("a", False, "other")
    assert CheckEntry("a", True) != ("a", True, "")
    assert repr(CheckEntry("a", False, "why")) == "CheckEntry('a', False, 'why')"


def test_check_reports_compare_by_title_and_entries():
    one, two = CheckReport("t"), CheckReport("t")
    assert one == two and one.entries is not two.entries
    assert repr(one) == "CheckReport('t', [])"
    one.add("first", 1)
    assert one != two and one.entries == [CheckEntry("first", True)]
    two.add("first", True)
    assert one == two and one != CheckReport("other", list(one.entries))
    assert one != ("t", one.entries)


def test_check_report_str_and_verdict():
    report = CheckReport("suite")
    assert str(report) == "suite: pass" and report.ok
    report.add("holds", True)
    report.add("breaks", False, "witness x1")
    assert not report.ok and report.failures() == [CheckEntry("breaks", False, "witness x1")]
    assert str(report) == "suite: FAIL\n[ok] holds\n[FAIL] breaks  witness x1"
