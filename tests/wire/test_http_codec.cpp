#include "ecnprobe/wire/http.hpp"

#include <gtest/gtest.h>

namespace ecnprobe::wire {
namespace {

TEST(HttpRequest, SerializesWithHeaders) {
  HttpRequest req;
  req.target = "/";
  req.headers["Host"] = "11.0.0.5";
  const auto text = req.serialize();
  EXPECT_EQ(text.rfind("GET / HTTP/1.0\r\n", 0), 0u);
  EXPECT_NE(text.find("Host: 11.0.0.5\r\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "\r\n\r\n");
}

TEST(HttpResponse, SerializesWithAutoContentLength) {
  HttpResponse resp;
  resp.status = 302;
  resp.reason = "Found";
  resp.headers["Location"] = "http://www.pool.ntp.org/";
  resp.body = "moved";
  const auto text = resp.serialize();
  EXPECT_EQ(text.rfind("HTTP/1.0 302 Found\r\n", 0), 0u);
  EXPECT_NE(text.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 5), "moved");
}

TEST(HttpParser, ParsesRequestIncrementally) {
  HttpParser parser(HttpParser::Kind::Request);
  EXPECT_TRUE(parser.feed("GET /index.html HT"));
  EXPECT_FALSE(parser.complete());
  EXPECT_TRUE(parser.feed("TP/1.0\r\nHost: example\r\n"));
  EXPECT_FALSE(parser.complete());
  EXPECT_TRUE(parser.feed("\r\n"));
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/index.html");
  EXPECT_EQ(parser.request().headers.at("host"), "example");  // case-insensitive
}

TEST(HttpParser, ParsesResponseWithBody) {
  HttpParser parser(HttpParser::Kind::Response);
  EXPECT_TRUE(parser.feed("HTTP/1.0 302 Found\r\nLocation: http://www.pool.ntp.org/\r\n"
                          "Content-Length: 3\r\n\r\nab"));
  EXPECT_FALSE(parser.complete());
  EXPECT_TRUE(parser.feed("c"));
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().status, 302);
  EXPECT_EQ(parser.response().reason, "Found");
  EXPECT_EQ(parser.response().body, "abc");
  EXPECT_EQ(parser.response().headers.at("location"), "http://www.pool.ntp.org/");
}

TEST(HttpParser, ResponseWithoutLengthCompletesAtHead) {
  HttpParser parser(HttpParser::Kind::Response);
  EXPECT_TRUE(parser.feed("HTTP/1.0 200 OK\r\n\r\n"));
  EXPECT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().status, 200);
}

TEST(HttpParser, RejectsMalformedStatusLine) {
  HttpParser parser(HttpParser::Kind::Response);
  EXPECT_FALSE(parser.feed("NOTHTTP banana\r\n\r\n"));
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, RejectsBadStatusCode) {
  for (const std::string code : {"999999", "xx", "+200", "-200", "20x", "0x1f"}) {
    HttpParser parser(HttpParser::Kind::Response);
    EXPECT_FALSE(parser.feed("HTTP/1.0 " + code + " OK\r\n\r\n")) << code;
  }
}

TEST(HttpParser, RejectsHeaderWithoutColon) {
  HttpParser parser(HttpParser::Kind::Request);
  EXPECT_FALSE(parser.feed("GET / HTTP/1.0\r\nBadHeaderNoColon\r\n\r\n"));
}

TEST(HttpParser, RejectsBadContentLength) {
  // RFC 9110 allows digits only: a signed length is malformed, not a huge
  // body (strtoull read "-1" as 2^64-1 and "+5" as 5).
  for (const std::string length :
       {"abc", "+5", "-1", "0x10", "5 5", "5x", "18446744073709551616"}) {
    HttpParser response(HttpParser::Kind::Response);
    EXPECT_FALSE(response.feed("HTTP/1.0 200 OK\r\nContent-Length: " + length + "\r\n\r\n"))
        << length;
    HttpParser request(HttpParser::Kind::Request);
    EXPECT_FALSE(request.feed("POST / HTTP/1.1\r\nContent-Length: " + length + "\r\n\r\n"))
        << length;
    EXPECT_EQ(request.error(), "bad Content-Length") << length;
  }
}

TEST(HttpParser, MultiWordReasonPreserved) {
  HttpParser parser(HttpParser::Kind::Response);
  EXPECT_TRUE(parser.feed("HTTP/1.0 404 Not Found\r\n\r\n"));
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.response().reason, "Not Found");
}

TEST(HttpParser, OversizedHeadFails) {
  HttpParser parser(HttpParser::Kind::Request);
  const std::string junk(70 * 1024, 'x');
  parser.feed(junk);
  EXPECT_TRUE(parser.failed());
}

TEST(CaseInsensitiveHeaders, LookupAnyCase) {
  HttpHeaders headers;
  headers["Content-Length"] = "10";
  EXPECT_TRUE(headers.contains("content-length"));
  EXPECT_TRUE(headers.contains("CONTENT-LENGTH"));
  EXPECT_EQ(headers.at("CoNtEnT-lEnGtH"), "10");
}

}  // namespace
}  // namespace ecnprobe::wire
